// Package regionrelease proves the data-plane's region-conservation
// invariant: every guest region acquired with View.Allocate must, on every
// control-flow path out of the acquiring function, either be released with
// a matching Deallocate (directly, through a releasing closure such as the
// ingress paths' abort helper, or in a deferred cleanup) or be handed to
// the caller (returned, directly or wrapped in a ref struct). PRs 2, 5 and
// 6 each hand-discovered instances of this leak class on error and cancel
// paths — the target-region leaks on core ingress failures fixed in PR 6
// are the motivating bug — and this analyzer turns the invariant into a
// compile-time gate.
//
// It additionally flags Deallocate calls whose error result is discarded
// (`_ = v.Deallocate(p)` or a bare call statement) — unless the discard
// provably executes only while failure handling is already in progress,
// the best-effort-rewind discipline: there is no channel left to report a
// rewind error on, so discarding is the correct shape. Three proof forms
// are accepted: (a) the discard sits under a branch that established a
// non-nil error, (b) the enclosing named function is error-path-only —
// every one of its exhaustively known call sites passes a non-nil error
// (summary.ErrPathOnly), or (c) the enclosing closure is an abort helper
// whose every invocation passes a non-nil error. Anything else needs real
// handling or a //roadvet:ignore justification at the site.
//
// The pass is interprocedural through the whole-program summary table:
// a call to a helper whose summary consumes the region at the pointer's
// position counts as the release, and an assignment from an unexported
// helper whose summary returns a fresh region creates an obligation —
// so a leak split across helpers is caught without annotations.
package regionrelease

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/callgraph"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/matchutil"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/obligation"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/summary"
)

// Row is the guest-region row of the obligation table, plus the
// discarded-Deallocate-error proof.
var Row = obligation.Row{
	Name:         "regionrelease",
	Doc:          "check that every allocated guest region is released or returned on every path",
	Domain:       summary.Region,
	Handoffs:     obligation.Return | obligation.Alias | obligation.Store,
	ErrPair:      obligation.ErrPrunes,
	LeakAtReturn: "region %q allocated at %s may leak: this return neither releases it nor passes it to the caller",
	LeakAtEnd:    "region %q may leak: a path reaches the function's end without releasing or returning it",
	Discarded:    "allocated region is discarded: assign the pointer and release it on failure paths",
	Extra:        checkDiscardedErrors,
}

// Analyzer is the regionrelease pass.
var Analyzer = obligation.New(Row)

// checkDiscardedErrors flags Deallocate calls whose error result is
// thrown away, unless the discard is a proven best-effort rewind — it can
// only execute while failure handling is already in progress (see the
// package comment's forms a, b, c).
func checkDiscardedErrors(pass *analysis.Pass, prog *summary.Program) {
	for _, f := range pass.Files {
		summary.WalkWithStack(f, func(n ast.Node, stack []ast.Node) {
			var call *ast.CallExpr
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
					if id, ok := s.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
						call, _ = s.Rhs[0].(*ast.CallExpr)
					}
				}
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
			}
			if call == nil {
				return
			}
			if summary.MatcherOf(summary.Region).Release(pass.TypesInfo, call) == nil {
				return
			}
			if onErrPath(pass, prog, stack) {
				return
			}
			pass.Reportf(call.Pos(), "Deallocate error discarded: a failed rewind breaks the conservation baseline; handle it or justify with //roadvet:ignore")
		})
	}
}

// onErrPath proves a discarded Deallocate error is a best-effort rewind.
// stack is the discard statement's ancestor chain, outermost first.
func onErrPath(pass *analysis.Pass, prog *summary.Program, stack []ast.Node) bool {
	// Innermost function boundary: a guard outside a closure does not
	// dominate the closure's body, so form (a) only looks inward of it.
	bi := -1
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			bi = i
		}
		if bi >= 0 {
			break
		}
	}
	if bi < 0 {
		return false
	}
	if errGuarded(pass, stack[bi:]) {
		return true // form (a): discard under an established non-nil error
	}
	switch fn := stack[bi].(type) {
	case *ast.FuncDecl:
		// Form (b): the enclosing named function is error-path-only.
		obj, _ := pass.TypesInfo.Defs[fn.Name].(*types.Func)
		return obj != nil && prog.ErrPathOnly(callgraph.Key(obj))
	case *ast.FuncLit:
		// Form (c): the enclosing closure is an abort helper.
		return abortClosure(pass, prog, stack, bi)
	}
	return false
}

// errGuarded reports whether the site sits inside a branch that
// established some error value as non-nil: the then-branch of `X != nil`
// or the else-branch of `X == nil`, with X of type error. The scan stops
// at a function-literal boundary — a guard outside a closure does not
// dominate the closure body's execution.
func errGuarded(pass *analysis.Pass, stack []ast.Node) bool {
	for i := len(stack) - 1; i > 0; i-- {
		if _, ok := stack[i-1].(*ast.FuncLit); ok {
			return false
		}
		ifs, ok := stack[i-1].(*ast.IfStmt)
		if !ok {
			continue
		}
		bin, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
			continue
		}
		var checked ast.Expr
		switch {
		case matchutil.IsNil(bin.Y):
			checked = bin.X
		case matchutil.IsNil(bin.X):
			checked = bin.Y
		default:
			continue
		}
		if t := pass.TypesInfo.TypeOf(checked); t == nil || !matchutil.IsErrorType(t) {
			continue
		}
		inThen := stack[i] == ast.Node(ifs.Body)
		inElse := stack[i] == ifs.Else
		if (bin.Op == token.NEQ && inThen) || (bin.Op == token.EQL && inElse) {
			return true
		}
	}
	return false
}

// abortClosure proves form (c): the function literal at stack[li] is an
// abort helper, in one of two shapes. Either it declares exactly one
// error parameter and every invocation (the immediate call of an invoked
// literal, or every use of the variable it is bound to) passes a provably
// non-nil error there; or it declares no error parameter and every
// invocation site itself sits under an established non-nil error — the
// release-the-landed-work unwind closure.
func abortClosure(pass *analysis.Pass, prog *summary.Program, stack []ast.Node, li int) bool {
	if prog == nil || li == 0 {
		return false
	}
	lit := stack[li].(*ast.FuncLit)
	argIdx := errParamIndex(pass, lit)
	pkg := summary.PassPkg(pass)
	// Immediately invoked literal: judge the one call in place.
	if call, ok := stack[li-1].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == ast.Expr(lit) {
		if argIdx < 0 {
			return errGuarded(pass, stack[:li-1])
		}
		return argIdx < len(call.Args) && prog.NonNilError(pkg, stack[:li-1], call.Args[argIdx])
	}
	// Variable-bound closure: `fail := func(err error) ...`. Every use of
	// the variable in the enclosing declaration must be a direct call with
	// a non-nil error argument; any other use means the closure escapes
	// and the proof fails closed.
	as, ok := stack[li-1].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 || as.Rhs[0] != ast.Expr(lit) {
		return false
	}
	def, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	obj := matchutil.Obj(pass.TypesInfo, def)
	if obj == nil {
		return false
	}
	var root ast.Node
	for i := 0; i <= li; i++ {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			root = fd
			break
		}
	}
	if root == nil {
		return false
	}
	calls, sound := 0, true
	summary.WalkWithStack(root, func(n ast.Node, st []ast.Node) {
		use, isID := n.(*ast.Ident)
		if !isID || use == def || matchutil.Obj(pass.TypesInfo, use) != obj {
			return
		}
		if len(st) == 0 {
			sound = false
			return
		}
		call, isCall := st[len(st)-1].(*ast.CallExpr)
		if !isCall || ast.Unparen(call.Fun) != ast.Expr(use) {
			sound = false
			return
		}
		calls++
		if argIdx < 0 {
			if !errGuarded(pass, st) {
				sound = false
			}
			return
		}
		if argIdx >= len(call.Args) || !prog.NonNilError(pkg, st, call.Args[argIdx]) {
			sound = false
		}
	})
	return sound && calls > 0
}

// errParamIndex returns the 0-based argument position of the literal's
// single error parameter, or -1 when it has none or more than one.
func errParamIndex(pass *analysis.Pass, lit *ast.FuncLit) int {
	if lit.Type.Params == nil {
		return -1
	}
	idx, found := 0, -1
	for _, f := range lit.Type.Params.List {
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		t := pass.TypesInfo.TypeOf(f.Type)
		isErr := t != nil && matchutil.IsErrorType(t)
		for k := 0; k < n; k++ {
			if isErr {
				if found != -1 {
					return -1
				}
				found = idx
			}
			idx++
		}
	}
	return found
}
