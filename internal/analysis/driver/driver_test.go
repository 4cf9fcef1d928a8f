package driver

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseFixture builds the minimal Package shape the annotation machinery
// reads (Fset + Files).
func parseFixture(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Fset: fset, Files: []*ast.File{f}}
}

const annotated = `package p

//roadvet:ignore regionrelease best-effort rewind on the failure path
var a = 1

var b = 2 //roadvet:ignore windowcredit same-line justification

//roadvet:ignore lockguard
var c = 3
`

func TestCollectIgnores(t *testing.T) {
	pkg := parseFixture(t, annotated)
	igs, malformed := collectIgnores(pkg)
	if len(igs) != 2 {
		t.Fatalf("got %d well-formed ignores, want 2", len(igs))
	}
	if igs[0].analyzer != "regionrelease" || !strings.Contains(igs[0].reason, "best-effort") {
		t.Errorf("first ignore parsed as %+v", igs[0])
	}
	if igs[1].analyzer != "windowcredit" {
		t.Errorf("second ignore parsed as %+v", igs[1])
	}
	if len(malformed) != 1 {
		t.Fatalf("got %d malformed findings, want 1 (missing reason)", len(malformed))
	}
	if !strings.Contains(malformed[0].Message, "needs a reason") {
		t.Errorf("malformed message = %q", malformed[0].Message)
	}
}

func TestMatchIgnore(t *testing.T) {
	pkg := parseFixture(t, annotated)
	igs, _ := collectIgnores(pkg)

	// Line 3 annotation covers its own line and line 4 (the statement
	// directly below), for the named analyzer only.
	covered := Finding{Analyzer: "regionrelease", Pos: token.Position{Filename: "fixture.go", Line: 4}}
	if matchIgnore(igs, covered) == nil {
		t.Error("annotation above the finding did not suppress it")
	}
	sameLine := Finding{Analyzer: "windowcredit", Pos: token.Position{Filename: "fixture.go", Line: 6}}
	if matchIgnore(igs, sameLine) == nil {
		t.Error("same-line annotation did not suppress the finding")
	}
	wrongAnalyzer := Finding{Analyzer: "lockguard", Pos: token.Position{Filename: "fixture.go", Line: 4}}
	if matchIgnore(igs, wrongAnalyzer) != nil {
		t.Error("annotation suppressed a different analyzer's finding")
	}
	farAway := Finding{Analyzer: "regionrelease", Pos: token.Position{Filename: "fixture.go", Line: 9}}
	if matchIgnore(igs, farAway) != nil {
		t.Error("annotation suppressed a finding two lines away")
	}
	otherFile := Finding{Analyzer: "regionrelease", Pos: token.Position{Filename: "other.go", Line: 4}}
	if matchIgnore(igs, otherFile) != nil {
		t.Error("annotation suppressed a finding in another file")
	}
}

func TestSortFindings(t *testing.T) {
	fs := []Finding{
		{Analyzer: "b", Pos: token.Position{Filename: "z.go", Line: 1}},
		{Analyzer: "a", Pos: token.Position{Filename: "a.go", Line: 9}},
		{Analyzer: "a", Pos: token.Position{Filename: "a.go", Line: 2}},
	}
	sortFindings(fs)
	if fs[0].Pos.Line != 2 || fs[1].Pos.Line != 9 || fs[2].Pos.Filename != "z.go" {
		t.Errorf("unexpected order: %v", fs)
	}
}
