package obligation_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/analyzertest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/fdclose"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/gaugebalance"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/obligation"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/poolreturn"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/refbalance"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/regionrelease"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/windowcredit"
)

// TestSplitMutation is the table's teeth-check, one case per domain. Each
// analyzer's split fixture keeps its release in a helper and is clean
// unmutated (the analyzer's own test runs it with zero expected
// diagnostics). Here the line marked "// mutation target" is deleted and
// every line marked "// MUT:leak" must then be reported — proving the
// clean pass comes from tracking the obligation through the helper's
// summary, not from failing to look. (regionrelease's committed
// TestReleaseSplitMutation pins the same property on its multi-line
// target.)
func TestSplitMutation(t *testing.T) {
	for _, tc := range []struct {
		analyzer *analysis.Analyzer
		want     string
	}{
		{poolreturn.Analyzer, "may leak"},
		{refbalance.Analyzer, "may leak"},
		{gaugebalance.Analyzer, "not balanced"},
		{fdclose.Analyzer, "may leak"},
		{windowcredit.Analyzer, "not followed by a push"},
	} {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("..", tc.analyzer.Name, "testdata", "src", "split", "split.go"))
			if err != nil {
				t.Fatal(err)
			}
			var out []string
			deleted, marked := 0, 0
			for _, line := range strings.Split(string(src), "\n") {
				if strings.Contains(line, "// mutation target") {
					deleted++
					continue
				}
				if strings.Contains(line, "// MUT:leak") {
					marked++
					line = strings.Replace(line, "// MUT:leak", "// want `"+tc.want+"`", 1)
				}
				out = append(out, line)
			}
			if deleted != 1 || marked == 0 {
				t.Fatalf("split.go: %d mutation targets (want 1), %d MUT:leak markers (want > 0)", deleted, marked)
			}
			pkg := filepath.Join(t.TempDir(), "src", "split")
			if err := os.MkdirAll(pkg, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(pkg, "split.go"), []byte(strings.Join(out, "\n")), 0o644); err != nil {
				t.Fatal(err)
			}
			analyzertest.Run(t, filepath.Dir(filepath.Dir(pkg)), tc.analyzer, "split")
		})
	}
}

// TestDiagnosticTexts pins every row's diagnostic strings: they are part
// of the gate's contract (the problem matcher, the -json artifact, the
// fixtures' want patterns), and the four original rows' texts are those
// of the four analyzers the table replaced, verbatim.
func TestDiagnosticTexts(t *testing.T) {
	for _, tc := range []struct {
		row  obligation.Row
		want [4]string // LeakAtReturn, LeakAtEnd, Unbalanced, Discarded
	}{
		{regionrelease.Row, [4]string{
			"region %q allocated at %s may leak: this return neither releases it nor passes it to the caller",
			"region %q may leak: a path reaches the function's end without releasing or returning it",
			"",
			"allocated region is discarded: assign the pointer and release it on failure paths",
		}},
		{poolreturn.Row, [4]string{
			"pooled %q taken at %s may leak: this return neither recycles it nor hands it off",
			"pooled %q may leak: a path reaches the function's end without recycling or handing it off",
			"",
			"pool.Get result discarded: the object can never be recycled; keep it and Put it, or drop the Get",
		}},
		{refbalance.Row, [4]string{
			"page refs %q acquired at %s may leak: this return neither releases them nor hands them off",
			"page refs %q may leak: a path reaches the function's end without Release/ReleaseAll or a handoff",
			"",
			"page refs discarded: the references can never be released; keep them and Release/ReleaseAll or hand them off",
		}},
		{gaugebalance.Row, [4]string{
			"", "",
			"%s.Enter(%s) is not balanced by an Exit on every path: the in-flight gauge leaks and least-loaded placement steers around a phantom invocation",
			"",
		}},
		{fdclose.Row, [4]string{
			"descriptor %q opened at %s may leak: this return neither closes it nor hands it to the caller",
			"descriptor %q may leak: a path reaches the function's end without closing it or handing it off",
			"",
			"descriptor discarded: it can never be closed; keep it and Close it",
		}},
		{windowcredit.Row, [4]string{
			"", "",
			"%s.reserve(%s) is not followed by a push on every path: the window stays charged and a later writer parks forever",
			"",
		}},
	} {
		got := [4]string{tc.row.LeakAtReturn, tc.row.LeakAtEnd, tc.row.Unbalanced, tc.row.Discarded}
		if got != tc.want {
			t.Errorf("%s: diagnostic texts\n got %q\nwant %q", tc.row.Name, got, tc.want)
		}
	}
}
