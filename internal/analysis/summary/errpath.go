package summary

// errpath.go proves the "best-effort rewind" discipline behind most of
// the tree's former //roadvet:ignore regionrelease annotations: a
// discarded Deallocate error is acceptable exactly when the discard can
// only execute while failure handling is already in progress — there is
// no channel left to report a rewind error on. regionrelease proves the
// local forms itself (a discard directly under an `err != nil` branch, or
// inside an abort closure whose every invocation passes a non-nil error);
// the interprocedural form — a named helper like ingressAbort whose
// callers all hand it a live error — needs the whole-program call-site
// index built here.
//
// The proof obligation for ErrPathOnly(f) is: f's call sites are
// exhaustively known (unexported, never address-taken, never reached by
// dynamic dispatch), and every site passes a provably non-nil error for
// one fixed error parameter. Provably non-nil means: a direct
// errors.New/fmt.Errorf call, a package-level error variable initialized
// with one, an identifier the site's enclosing `if err != nil` (or the
// else of `== nil`) dominates, or the caller's own error parameter when
// the caller is itself error-path-only — the last rule closes the chain
// through layered abort helpers with a cycle-tolerant memo.

import (
	"go/ast"
	"go/types"
	"strconv"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/callgraph"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/matchutil"
)

// callSite is one statically resolved call, with the AST chain from its
// file down to the call (outermost first).
type callSite struct {
	pkg   *callgraph.Pkg
	call  *ast.CallExpr
	stack []ast.Node
}

// memo states for the non-nil-parameter fixpoint.
const (
	nnUnknown int8 = iota
	nnInProgress
	nnYes
	nnNo
)

// collectSites indexes every statically resolved call in the program by
// callee key, keeping each site's ancestor chain for dominance checks.
func (p *Program) collectSites(pkgs []*callgraph.Pkg) {
	for _, unit := range pkgs {
		if unit.Types != nil {
			p.units[unit.Types.Path()] = unit
		}
		for _, f := range unit.Files {
			WalkWithStack(f, func(n ast.Node, stack []ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				targets, dynamic := p.Graph.ResolveCall(unit, call)
				if dynamic || len(targets) != 1 {
					return
				}
				p.sites[targets[0].Key] = append(p.sites[targets[0].Key], &callSite{
					pkg:   unit,
					call:  call,
					stack: append([]ast.Node(nil), stack...),
				})
			})
		}
	}
}

// WalkWithStack traverses root, calling fn with each node and the chain
// of its ancestors (outermost first, not including the node itself).
func WalkWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// ErrPathOnly reports whether the named function provably runs only
// during failure handling: some error parameter of f receives a non-nil
// error at every one of its (exhaustively known) call sites.
func (p *Program) ErrPathOnly(key string) bool {
	if p == nil {
		return false
	}
	n := p.Graph.Node(key)
	if n == nil || n.Decl == nil {
		return false
	}
	for pos, obj := range paramObjs(n) {
		if obj == nil || !matchutil.IsErrorType(obj.Type()) {
			continue
		}
		if p.paramNonNil(key, pos) {
			return true
		}
	}
	return false
}

// paramNonNil reports whether the parameter at summary position pos is
// non-nil at every call site of the function. In-progress queries answer
// optimistically, making mutually recursive abort helpers converge on the
// consistent (greatest) fixpoint.
func (p *Program) paramNonNil(key string, pos int) bool {
	mk := key + "#" + strconv.Itoa(pos)
	switch p.nonNilMemo[mk] {
	case nnYes, nnInProgress:
		return true
	case nnNo:
		return false
	}
	p.nonNilMemo[mk] = nnInProgress
	res := p.paramNonNilUncached(key, pos)
	if res {
		p.nonNilMemo[mk] = nnYes
	} else {
		p.nonNilMemo[mk] = nnNo
	}
	return res
}

func (p *Program) paramNonNilUncached(key string, pos int) bool {
	n := p.Graph.Node(key)
	if n == nil || n.Decl == nil || n.Decl.Name.IsExported() {
		return false
	}
	if n.AddressTaken || n.DynamicallyCalled {
		return false // call sites are not exhaustively known: fail closed
	}
	sites := p.sites[key]
	if len(sites) == 0 {
		return false
	}
	for _, site := range sites {
		arg := argAtPosition(site.call, pos)
		if arg == nil || !p.NonNilError(site.pkg, site.stack, arg) {
			return false
		}
	}
	return true
}

// argAtPosition maps a summary parameter position back to the call-site
// argument (position 0 is the receiver, which never carries an error).
func argAtPosition(call *ast.CallExpr, pos int) ast.Expr {
	i := pos - 1
	if i < 0 || i >= len(call.Args) {
		return nil
	}
	return call.Args[i]
}

// NonNilError reports whether expr is provably a non-nil error at its use
// site. stack is the AST ancestor chain of the expression's use
// (outermost first), as produced by WalkWithStack.
func (p *Program) NonNilError(pkg *callgraph.Pkg, stack []ast.Node, expr ast.Expr) bool {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.CallExpr:
		return isErrCtor(e)
	case *ast.Ident:
		obj := matchutil.Obj(pkg.Info, e)
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return p.pkgLevelErrVar(v)
		}
		if guardedNonNil(pkg.Info, stack, obj) {
			return true
		}
		return p.callerErrParam(pkg, stack, obj)
	}
	return false
}

// isErrCtor matches errors.New(...) and fmt.Errorf(...).
func isErrCtor(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	return (x.Name == "errors" && sel.Sel.Name == "New") ||
		(x.Name == "fmt" && sel.Sel.Name == "Errorf")
}

// pkgLevelErrVar reports whether v is a package-level error variable
// initialized with errors.New/fmt.Errorf — the ErrClosed shape. The
// defining package's source must be among the loaded units; matching is
// by name, the only identity stable across per-package type-checkers.
func (p *Program) pkgLevelErrVar(v *types.Var) bool {
	if v.Pkg() == nil {
		return false
	}
	unit := p.units[v.Pkg().Path()]
	if unit == nil {
		return false
	}
	for _, f := range unit.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if name.Name != v.Name() || i >= len(vs.Values) {
						continue
					}
					if call, ok := ast.Unparen(vs.Values[i]).(*ast.CallExpr); ok && isErrCtor(call) {
						return true
					}
				}
			}
		}
	}
	return false
}

// guardedNonNil reports whether the use site sits inside a branch that
// established obj != nil: the then-branch of `if obj != nil` (including
// the `if obj := f(); obj != nil` form) or the else-branch of
// `if obj == nil`.
func guardedNonNil(info *types.Info, stack []ast.Node, obj types.Object) bool {
	for i := len(stack) - 1; i > 0; i-- {
		ifs, ok := stack[i-1].(*ast.IfStmt)
		if !ok {
			continue
		}
		bin, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok {
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
		id, ok := ast.Unparen(checked).(*ast.Ident)
		if !ok || matchutil.Obj(info, id) != obj {
			continue
		}
		inThen := stack[i] == ast.Node(ifs.Body)
		inElse := stack[i] == ifs.Else
		if (bin.Op.String() == "!=" && inThen) || (bin.Op.String() == "==" && inElse) {
			return true
		}
	}
	return false
}

// callerErrParam reports whether obj is an error parameter of the
// enclosing function declaration — with no function literal in between,
// whose capture would decouple the value from the call site — and that
// function is itself error-path-only.
func (p *Program) callerErrParam(pkg *callgraph.Pkg, stack []ast.Node, obj types.Object) bool {
	var fd *ast.FuncDecl
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.FuncLit); ok {
			return false
		}
		if d, ok := stack[i].(*ast.FuncDecl); ok {
			fd = d
			break
		}
	}
	if fd == nil {
		return false
	}
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	if fn == nil {
		return false
	}
	key := callgraph.Key(fn)
	n := p.Graph.Node(key)
	if n == nil {
		return false
	}
	for pos, po := range paramObjs(n) {
		if po == obj && matchutil.IsErrorType(obj.Type()) {
			return p.paramNonNil(key, pos)
		}
	}
	return false
}
