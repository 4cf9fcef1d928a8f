// Package callgraph builds a whole-program call graph over the packages
// the roadvet driver loads, in the style of x/tools' CHA construction
// (golang.org/x/tools/go/callgraph/cha). The x/tools builders sit on
// go/ssa, which the Go distribution does not vendor and the repository's
// no-network discipline therefore cannot import, so this is the same
// class-hierarchy analysis computed directly over the driver's AST and
// type information:
//
//   - a static call (package function, concrete method) has exactly one
//     target;
//   - an interface method call resolves to every concrete type in the
//     loaded program whose method set covers the interface — matched
//     structurally by method name, an over-approximation of
//     types.Implements that stays sound across the driver's per-package
//     type-checkers (export-data types and source types are distinct
//     objects, so identity-based checks would silently miss edges);
//   - a call through a function value resolves to nothing and is marked
//     dynamic — analyses must treat it as calling anything.
//
// The graph also records, per function, whether it is ever referenced
// outside a direct call position (address taken, stored, deferred through
// a value, launched by go through a value) and whether it is reachable
// through dynamic dispatch. Both facts let client analyses decide when a
// function's call sites are exhaustively known — the precondition for
// inferring facts about its entry state (see lockguard) — and fail closed
// when they are not.
//
// Functions are keyed by their types.Func full name ("pkg/path.F",
// "(pkg/path.T).M"), the only identity that is stable across the driver's
// independently type-checked packages.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"golang.org/x/tools/go/types/typeutil"
)

// Pkg is one loaded package's syntax and type information — the subset of
// the driver's package form the graph builder reads.
type Pkg struct {
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Types *types.Package
}

// Node is one declared function in the loaded program.
type Node struct {
	// Key is the canonical function identity (types.Func full name).
	Key string
	// Decl is the function's declaration; Body may be nil (declared
	// without body, e.g. assembly stubs).
	Decl *ast.FuncDecl
	// Pkg is the unit the declaration was loaded from.
	Pkg *Pkg
	// Obj is the function object in its defining package's type-checker.
	Obj *types.Func
	// AddressTaken reports a reference to the function outside a direct
	// call position: its call sites are not exhaustively known.
	AddressTaken bool
	// DynamicallyCalled reports reachability through interface dispatch
	// (a CHA edge): concrete call sites under-approximate its callers.
	DynamicallyCalled bool

	callees map[string]bool // keys of statically-resolved callees
}

// Graph is the program-wide call graph.
type Graph struct {
	nodes map[string]*Node
	// methodIndex maps a method name to every concrete declared method
	// with that name — the CHA resolution table.
	methodIndex map[string][]*Node
	// static memoises the declared node (or nil) behind each callee
	// object: every analyzer row resolves the same calls again, and
	// rendering a Key is the expensive part.
	static map[*types.Func]*Node
}

// Key returns the canonical identity for a function object. The origin
// (uninstantiated) function stands in for generic instances.
func Key(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	return fn.Origin().FullName()
}

// Build constructs the call graph over the loaded packages.
func Build(pkgs []*Pkg) *Graph {
	g := &Graph{
		nodes:       make(map[string]*Node),
		methodIndex: make(map[string][]*Node),
		static:      make(map[*types.Func]*Node),
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := p.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := &Node{
					Key:     Key(obj),
					Decl:    fd,
					Pkg:     p,
					Obj:     obj,
					callees: make(map[string]bool),
				}
				g.nodes[n.Key] = n
				if fd.Recv != nil {
					g.methodIndex[fd.Name.Name] = append(g.methodIndex[fd.Name.Name], n)
				}
			}
		}
	}
	for _, p := range pkgs {
		g.scanPackage(p)
	}
	return g
}

// Node returns the declared function for key, or nil.
func (g *Graph) Node(key string) *Node { return g.nodes[key] }

// scanPackage records call edges, address-taken references, and dynamic
// reachability for one package.
func (g *Graph) scanPackage(p *Pkg) {
	for _, f := range p.Files {
		var enclosing *Node
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.FuncDecl:
				if obj, _ := p.Info.Defs[s.Name].(*types.Func); obj != nil {
					enclosing = g.nodes[Key(obj)]
				}
				return true
			case *ast.CallExpr:
				targets, _ := g.ResolveCall(p, s)
				for _, t := range targets {
					if enclosing != nil {
						enclosing.callees[t.Key] = true
					}
				}
				// The callee expression itself is a call position, not an
				// address-taken reference; mark operands only.
				g.markRefs(p, s.Fun, true)
				for _, a := range s.Args {
					g.markRefs(p, a, false)
				}
				return false // operands handled above
			case *ast.Ident, *ast.SelectorExpr:
				g.markRefs(p, s.(ast.Expr), false)
				return false
			}
			return true
		}
		ast.Inspect(f, walk)
	}
}

// markRefs flags function objects referenced under e as address-taken.
// When callPos is true the outermost identifier/selector is the callee of
// a direct call and is exempt; anything nested deeper is a value use.
func (g *Graph) markRefs(p *Pkg, e ast.Expr, callPos bool) {
	first := true
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			if _, isSel := n.(*ast.SelectorExpr); isSel && first {
				return true // descend to the selector's parts
			}
			first = false
			return true
		}
		exempt := callPos && first
		first = false
		fn, _ := p.Info.Uses[id].(*types.Func)
		if fn == nil || exempt {
			return true
		}
		if node := g.nodes[Key(fn)]; node != nil {
			node.AddressTaken = true
		}
		return true
	})
}

// ResolveCall resolves one call expression to its possible targets within
// the loaded program. dynamic reports that the target set is not
// exhaustive: a call through a function value, a callee declared outside
// the loaded packages, or an interface method with no in-program
// implementation still counts as potentially calling anything.
func (g *Graph) ResolveCall(p *Pkg, call *ast.CallExpr) (targets []*Node, dynamic bool) {
	callee := typeutil.Callee(p.Info, call)
	fn, ok := callee.(*types.Func)
	if !ok {
		// Function-value call (or a builtin/conversion the caller should
		// have filtered): unknown target set.
		return nil, true
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			// CHA: every concrete method with this name is a candidate.
			// Name-only matching over-approximates types.Implements, which
			// cannot be used soundly across per-package type-checkers.
			cands := g.methodIndex[fn.Name()]
			out := make([]*Node, len(cands))
			copy(out, cands)
			for _, c := range out {
				c.DynamicallyCalled = true
			}
			return out, true
		}
	}
	n, seen := g.static[fn]
	if !seen {
		n = g.nodes[Key(fn)]
		g.static[fn] = n
	}
	if n != nil {
		return []*Node{n}, false
	}
	// Declared outside the loaded program (stdlib, vendored deps):
	// no summary will exist; treat as dynamic so clients stay
	// conservative about its behavior.
	return nil, true
}

// SCCTopo returns the graph's strongly connected components in bottom-up
// topological order: every component appears after all components it
// calls into, so a summary computation that processes the slice in order
// sees callee results before callers — with a fixpoint needed only within
// each component (recursion). The order is deterministic across runs.
func (g *Graph) SCCTopo() [][]*Node {
	// Tarjan's algorithm. Nodes are visited in sorted key order so the
	// output is stable.
	keys := make([]string, 0, len(g.nodes))
	for k := range g.nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	index := make(map[*Node]int)
	low := make(map[*Node]int)
	onStack := make(map[*Node]bool)
	var stack []*Node
	var sccs [][]*Node
	next := 0

	var strongconnect func(v *Node)
	strongconnect = func(v *Node) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true

		calleeKeys := make([]string, 0, len(v.callees))
		for k := range v.callees {
			calleeKeys = append(calleeKeys, k)
		}
		sort.Strings(calleeKeys)
		for _, ck := range calleeKeys {
			w := g.nodes[ck]
			if w == nil {
				continue
			}
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}

		if low[v] == index[v] {
			var comp []*Node
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, k := range keys {
		v := g.nodes[k]
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	// Tarjan emits components in reverse topological order of the
	// condensation — which for a call graph is exactly callee-first
	// (bottom-up): a component is completed only after everything it can
	// reach has been emitted.
	return sccs
}

// Callees returns the keys of v's statically-resolved callees, sorted.
func (v *Node) Callees() []string {
	out := make([]string, 0, len(v.callees))
	for k := range v.callees {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
