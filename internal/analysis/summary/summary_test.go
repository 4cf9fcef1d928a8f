package summary

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/callgraph"
)

// parseUnit type-checks one source file (standard-library imports only)
// into a call-graph unit.
func parseUnit(t *testing.T, src string) *callgraph.Pkg {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("fix", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &callgraph.Pkg{Fset: fset, Files: []*ast.File{f}, Info: info, Types: pkg}
}

const stubs = `package fix

type View struct{}

func (v *View) Allocate(n uint32) (uint32, error) { return n, nil }
func (v *View) Deallocate(p uint32) error         { return nil }

type Ref struct{ Ptr uint32 }

func (r Ref) Release() {}

func ReleaseAll(rs ...Ref) {}
`

func TestConsumesReleaseHelper(t *testing.T) {
	prog := Build([]*callgraph.Pkg{parseUnit(t, stubs+`
func rel(v *View, p uint32) {
	_ = v.Deallocate(p)
}

func relChecked(v *View, p uint32) error {
	return v.Deallocate(p)
}

func use(v *View, p uint32) uint32 {
	return p + 1
}

func relOneSide(v *View, p uint32, cond bool) {
	if cond {
		_ = v.Deallocate(p)
	}
}

func relGuarded(v *View, p uint32) {
	if p == 0 {
		return
	}
	_ = v.Deallocate(p)
}

func relVia(v *View, p uint32) {
	rel(v, p)
}
`)})
	for _, tc := range []struct {
		fn   string
		pos  int
		want bool
	}{
		{"fix.rel", 2, true},
		{"fix.relChecked", 2, true},
		{"fix.use", 2, false},
		{"fix.relOneSide", 2, false}, // the cond-false path leaks p
		{"fix.relGuarded", 2, true},  // p == 0 path is guard-exempt
		{"fix.relVia", 2, true},      // through the helper's summary
	} {
		s := prog.Summary(tc.fn)
		if s == nil {
			t.Fatalf("no summary for %s", tc.fn)
		}
		if got := s.Consumes[Region][tc.pos]; got != tc.want {
			t.Errorf("%s consumes region at %d = %v, want %v", tc.fn, tc.pos, got, tc.want)
		}
	}
}

func TestConsumesRecursiveHelper(t *testing.T) {
	prog := Build([]*callgraph.Pkg{parseUnit(t, stubs+`
func relEven(rs []Ref) {
	relOdd(rs)
}

func relOdd(rs []Ref) {
	if len(rs) == 0 {
		return
	}
	rs[0].Release()
	relEven(rs[1:])
}

func relRange(rs []Ref) {
	for _, r := range rs {
		r.Release()
	}
}
`)})
	for _, fn := range []string{"fix.relEven", "fix.relOdd", "fix.relRange"} {
		s := prog.Summary(fn)
		if s == nil || !s.Consumes[Ref][1] {
			t.Errorf("%s: want Consumes[ref][1] via the SCC fixpoint, got %+v", fn, s)
		}
	}
}

func TestReturnsRegion(t *testing.T) {
	prog := Build([]*callgraph.Pkg{parseUnit(t, stubs+`
func grab(v *View, n uint32) (uint32, error) {
	return v.Allocate(n)
}

func grabVar(v *View, n uint32) (uint32, error) {
	p, err := v.Allocate(n)
	if err != nil {
		return 0, err
	}
	return p, nil
}

func grabVia(v *View, n uint32) (uint32, error) {
	return grab(v, n)
}
`)})
	for _, fn := range []string{"fix.grab", "fix.grabVar", "fix.grabVia"} {
		s := prog.Summary(fn)
		if s == nil || !s.Returns[Region][0] {
			t.Errorf("%s: want Returns[region][0], got %+v", fn, s)
		}
	}
}

func TestErrPathOnly(t *testing.T) {
	prog := Build([]*callgraph.Pkg{parseUnit(t, stubs+`
func abort(v *View, p uint32, err error) error {
	_ = v.Deallocate(p)
	return err
}

func happy(v *View, p uint32, err error) error {
	return err
}

func caller(v *View) error {
	p, err := v.Allocate(4)
	if err != nil {
		return abort(v, p, err)
	}
	_ = happy(v, p, nil)
	return v.Deallocate(p)
}
`)})
	if !prog.ErrPathOnly("fix.abort") {
		t.Errorf("abort: want ErrPathOnly (only call site is under err != nil)")
	}
	if prog.ErrPathOnly("fix.happy") {
		t.Errorf("happy: called with nil error, must not be ErrPathOnly")
	}
}

func TestSCCTopoOrder(t *testing.T) {
	unit := parseUnit(t, stubs+`
func a() { b() }
func b() { c(); b() }
func c() {}
`)
	g := callgraph.Build([]*callgraph.Pkg{unit})
	seen := make(map[string]int)
	for i, scc := range g.SCCTopo() {
		for _, n := range scc {
			seen[n.Key] = i
		}
	}
	if !(seen["fix.c"] < seen["fix.b"] && seen["fix.b"] < seen["fix.a"]) {
		t.Errorf("want bottom-up order c < b < a, got %v", seen)
	}
}

// TestTableReleaseIsConsumed pins the property the domain table exists
// for: the summaries and the obligation engine read one definition of a
// release. For every domain, the release call inside a helper is
// recognised by the table's Release matcher, and the helper's summary
// records it — Consumes at the released parameter for an object-keyed
// domain, Exits on behalf of the receiver parameter for a bracket-keyed
// one.
func TestTableReleaseIsConsumed(t *testing.T) {
	unit := parseUnit(t, `package fix

import "sync"

type View struct{}

func (v *View) Deallocate(p uint32) error { return nil }

type Ref struct{}

func (r Ref) Release() {}

func ReleaseAll(rs []Ref) {}

type State struct{}

func (st *State) Exit(i int) {}

type sendWindow struct{}

func (w *sendWindow) push(rs []Ref, charged bool) error { return nil }

var pool sync.Pool

func relRegion(v *View, p uint32)  { _ = v.Deallocate(p) }
func relPool(x *int)               { pool.Put(x) }
func relRef(r Ref)                 { r.Release() }
func relRefs(rs []Ref)             { ReleaseAll(rs) }
func relGauge(st *State, i int)    { st.Exit(i) }
func relWindow(w *sendWindow)      { _ = w.push(nil, true) }
`)
	prog := Build([]*callgraph.Pkg{unit})
	for _, tc := range []struct {
		fn  string
		d   Domain
		pos int // the released parameter, or the bracket's receiver parameter
	}{
		{"relRegion", Region, 2},
		{"relPool", Pool, 1},
		{"relRef", Ref, 1},
		{"relRefs", Ref, 1},
		{"relGauge", Gauge, 1},
		{"relWindow", Window, 1},
	} {
		m := MatcherOf(tc.d)
		var released []ast.Expr
		for _, decl := range unit.Files[0].Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == tc.fn {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok && released == nil {
						released = m.Release(unit.Info, call)
					}
					return true
				})
			}
		}
		if len(released) == 0 {
			t.Errorf("%s: the %s row's Release matcher does not recognise the helper's release call", tc.fn, tc.d)
			continue
		}
		s := prog.Summary("fix." + tc.fn)
		if m.Enter != nil {
			if len(s.Exits[tc.d]) != 1 || s.Exits[tc.d][0].Recv != tc.pos {
				t.Errorf("%s: want one %s exit on behalf of parameter %d, got %+v", tc.fn, tc.d, tc.pos, s.Exits[tc.d])
			}
		} else if !s.Consumes[tc.d][tc.pos] {
			t.Errorf("%s: the table recognises the release, but Consumes[%s][%d] is false", tc.fn, tc.d, tc.pos)
		}
	}
}
