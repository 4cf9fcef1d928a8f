package summary

// install.go wires the whole-program summary table into the go/analysis
// world. The driver (and the analyzertest harness) build one Program over
// every package of a run and Install it; the summaries analyzer then
// hands that Program to each requiring pass. When nothing is installed —
// an analyzer run outside the roadvet driver — the analyzer degrades to a
// single-package Program built from the pass itself: intra-package helper
// chains still resolve, cross-package ones conservatively do not.

import (
	"go/ast"
	"go/types"
	"reflect"
	"slices"
	"sync"

	"golang.org/x/tools/go/analysis"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/callgraph"
)

// Analyzer exposes the installed whole-program summary table to passes
// that list it in Requires.
var Analyzer = &analysis.Analyzer{
	Name:       "summaries",
	Doc:        "compute whole-program resource-obligation summaries for the roadvet analyzers",
	Run:        run,
	ResultType: reflect.TypeOf((*Program)(nil)),
}

var (
	mu        sync.Mutex
	installed *Program
)

// Install publishes prog as the table every subsequent summaries run
// returns. The driver calls it once per Vet after loading all packages.
func Install(prog *Program) {
	mu.Lock()
	defer mu.Unlock()
	installed = prog
}

// Installed returns the published Program, or nil.
func Installed() *Program {
	mu.Lock()
	defer mu.Unlock()
	return installed
}

func run(pass *analysis.Pass) (interface{}, error) {
	if p := Installed(); p != nil {
		return p, nil
	}
	return Build([]*callgraph.Pkg{PassPkg(pass)}), nil
}

// PassPkg adapts one analysis pass to a call-graph unit.
func PassPkg(pass *analysis.Pass) *callgraph.Pkg {
	return &callgraph.Pkg{
		Fset:  pass.Fset,
		Files: pass.Files,
		Info:  pass.TypesInfo,
		Types: pass.Pkg,
	}
}

// FromPass returns the Program a requiring analyzer should use.
func FromPass(pass *analysis.Pass) *Program {
	p, _ := pass.ResultOf[Analyzer].(*Program)
	return p
}

// CallReturns reports whether call's first result carries a fresh
// domain-d obligation to the caller: every statically known target is an
// unexported helper whose summary returns one at result 0. Exported
// functions are excluded by design — an exported constructor is a
// documented ownership handoff, not an internal decomposition.
func (p *Program) CallReturns(pass *analysis.Pass, call *ast.CallExpr, d Domain) bool {
	sums := p.CallSummaries(pass, call)
	return len(sums) > 0 && !slices.ContainsFunc(sums, func(s *Summary) bool { return !s.Unexported || !s.Returns[d][0] })
}

// StaticallyResolved reports whether call resolves to known in-program
// targets with no dynamic dispatch — the precondition for holding a
// callee's summary against it instead of giving it the benefit of the
// doubt.
func (p *Program) StaticallyResolved(pass *analysis.Pass, call *ast.CallExpr) bool {
	return len(p.CallSummaries(pass, call)) > 0
}

// CallSummaries returns the summaries of call's statically known
// targets, or nil when the call is dynamic, has no in-program target, or
// any target lacks a summary.
func (p *Program) CallSummaries(pass *analysis.Pass, call *ast.CallExpr) []*Summary {
	return p.summariesOf(PassPkg(pass), call)
}

// CallConsumes reports whether call settles obj's domain-d obligation:
// obj is the receiver or an argument at a position every statically known
// target's summary consumes. This is the analyzers' main query — it makes
// `helper(v, p)` count as the release when helper provably releases.
func (p *Program) CallConsumes(pass *analysis.Pass, call *ast.CallExpr, obj types.Object, d Domain) bool {
	return p.consumesObj(PassPkg(pass), call, obj, d)
}
