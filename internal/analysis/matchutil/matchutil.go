// Package matchutil holds the small type- and AST-matching helpers the
// roadvet analyzers and summaries share — one copy of each — and Paths,
// the memoised CFG path walk behind the obligation engine and the
// summary scans. Matching is structural — a method's name plus the name
// of its receiver's defining type — so the analyzers apply both to the
// real data-plane packages and to analyzertest fixtures that mimic them
// with local stub types.
package matchutil

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/cfg"
)

// Method reports whether call invokes a method named methodName whose
// receiver's type (after dereferencing) is a named type called typeName,
// returning the receiver expression.
func Method(info *types.Info, call *ast.CallExpr, typeName, methodName string) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != methodName {
		return nil, false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil, false
	}
	if NamedName(s.Recv()) != typeName {
		return nil, false
	}
	return sel.X, true
}

// MethodOnAny is Method over a set of acceptable receiver type names.
func MethodOnAny(info *types.Info, call *ast.CallExpr, typeNames []string, methodName string) (ast.Expr, bool) {
	for _, tn := range typeNames {
		if recv, ok := Method(info, call, tn, methodName); ok {
			return recv, true
		}
	}
	return nil, false
}

// MutexField matches calls of the form owner.<field>.Lock() /
// owner.<field>.Unlock() where <field> is a sync.Mutex-like field named
// fieldName on a named type called ownerType. It returns the owner
// expression and the operation name ("Lock"/"Unlock").
func MutexField(info *types.Info, call *ast.CallExpr, ownerType, fieldName string) (owner ast.Expr, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || (sel.Sel.Name != "Lock" && sel.Sel.Name != "Unlock") {
		return nil, "", false
	}
	inner, isSel := sel.X.(*ast.SelectorExpr)
	if !isSel || inner.Sel.Name != fieldName {
		return nil, "", false
	}
	fs, found := info.Selections[inner]
	if !found || fs.Kind() != types.FieldVal {
		return nil, "", false
	}
	if NamedName(fs.Recv()) != ownerType {
		return nil, "", false
	}
	return inner.X, sel.Sel.Name, true
}

// CalleeName returns the bare name a call invokes: the identifier for
// f(...), the selector for pkg.f(...) or x.f(...). Empty when the callee
// has another shape.
func CalleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// Obj resolves an identifier to its object, through either a use or a
// definition.
func Obj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// typeName unwraps one pointer and returns the declared name object of a
// named or alias type, or nil.
func typeName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch n := t.(type) {
	case *types.Named:
		return n.Obj()
	case *types.Alias:
		return n.Obj()
	}
	return nil
}

// NamedName unwraps pointers and aliases and returns the type's declared
// name, or "" when it is not a named type.
func NamedName(t types.Type) string {
	if tn := typeName(t); tn != nil {
		return tn.Name()
	}
	return ""
}

// SyncPoolMethod reports whether call invokes the named method on a
// sync.Pool value (directly or through a pointer). The match is by the
// defining package, not just the type name, so the pagebuf and sched
// Pools — whose pages and tasks have their own ownership disciplines —
// stay out of scope.
func SyncPoolMethod(info *types.Info, call *ast.CallExpr, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	tn := typeName(s.Recv())
	return tn != nil && tn.Name() == "Pool" && tn.Pkg() != nil && tn.Pkg().Path() == "sync"
}

// IsErrorType reports whether t is the built-in error interface.
func IsErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// IsNil reports whether e is the predeclared nil.
func IsNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// Mentions reports whether any identifier under node resolves to obj.
func Mentions(info *types.Info, node ast.Node, obj types.Object) bool {
	if obj == nil || node == nil {
		return false
	}
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && Obj(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// Contains reports whether outer contains (or is) the target node.
func Contains(outer, target ast.Node) bool {
	found := false
	ast.Inspect(outer, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// InspectSkippingFuncLits walks root, visiting every node except those
// inside nested function literals (which run at another time and are
// analyzed as functions of their own).
func InspectSkippingFuncLits(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// StoresAway reports an assignment that writes obj into a non-local
// structure (a field, slice element, map entry or pointee): ownership
// moves to whoever owns the structure.
func StoresAway(info *types.Info, as *ast.AssignStmt, obj types.Object) bool {
	for _, l := range as.Lhs {
		if _, local := l.(*ast.Ident); local {
			continue
		}
		for _, r := range as.Rhs {
			if Mentions(info, r, obj) {
				return true
			}
		}
	}
	return false
}

// EndsInNoReturnCall reports whether the block's last node is a call
// expression — the shape cfg gives blocks terminated by panic or a
// no-return function, which are not fall-off exits.
func EndsInNoReturnCall(b *cfg.Block) bool {
	if len(b.Nodes) == 0 {
		return false
	}
	switch n := b.Nodes[len(b.Nodes)-1].(type) {
	case *ast.CallExpr:
		return true
	case *ast.ExprStmt:
		_, ok := n.X.(*ast.CallExpr)
		return ok
	}
	return false
}

// Paths explores every control-flow path from node index from of block
// start, threading a small comparable path state through step — once per
// (block, state) pair, so loops terminate. step sees each node in turn
// and returns the state after it, or done to end the path there (a
// return statement). At the end of a block, next picks the successors to
// follow; it is also where a caller judges a path that ran out of
// successors.
func Paths[S comparable](start *cfg.Block, from int, s S,
	step func(b *cfg.Block, i int, s S) (next S, done bool),
	next func(b *cfg.Block, s S) []*cfg.Block) {
	type key struct {
		block int32
		s     S
	}
	seen := make(map[key]bool)
	var visit func(b *cfg.Block, from int, s S)
	visit = func(b *cfg.Block, from int, s S) {
		if k := (key{b.Index, s}); from == 0 {
			if seen[k] {
				return
			}
			seen[k] = true
		}
		for i := from; i < len(b.Nodes); i++ {
			var done bool
			if s, done = step(b, i, s); done {
				return
			}
		}
		for _, succ := range next(b, s) {
			visit(succ, 0, s)
		}
	}
	visit(start, from, s)
}
