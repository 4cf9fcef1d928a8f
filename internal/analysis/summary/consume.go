package summary

// consume.go holds the per-function evaluation: the CFG must-discharge
// state machine behind Consumes and the Returns / PollsCtx / bracket-pair
// scans. What counts as an acquire or a release comes from the domain
// table (domain.go); the path enumeration is matchutil.Paths, the walk
// the obligation engine uses too.

import (
	"cmp"
	"go/ast"
	"go/types"
	"slices"

	"golang.org/x/tools/go/cfg"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/callgraph"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/matchutil"
)

// builder carries the per-Build state: the table under construction and a
// CFG cache (one CFG per function, reused across every param × domain
// query and fixpoint iteration).
type builder struct {
	prog *Program
	cfgs map[*callgraph.Node]*cfg.CFG
}

func (b *builder) cfgOf(n *callgraph.Node) *cfg.CFG {
	if g, ok := b.cfgs[n]; ok {
		return g
	}
	var g *cfg.CFG
	if n.Decl != nil && n.Decl.Body != nil {
		g = cfg.New(n.Decl.Body, func(call *ast.CallExpr) bool {
			id, ok := call.Fun.(*ast.Ident)
			return !ok || id.Name != "panic"
		})
	}
	b.cfgs[n] = g
	return g
}

// consumes reports whether fn discharges param p's domain-d obligation:
// every path out of the function either discharges it (a domain release,
// a statically resolved call to a consuming callee, a store into a
// non-local structure, a channel send, a goroutine handoff) or is
// guard-exempt — it branched on a condition mentioning p (the `p == nil` /
// `len(ps) == 0` base case, where there is nothing to release) and never
// touched p otherwise. At least one path must actually discharge. A path
// that touches p without discharging — including returning it to the
// caller, which round-trips the obligation rather than settling it —
// refutes the fact.
func (b *builder) consumes(n *callgraph.Node, p types.Object, m *Matcher) bool {
	g := b.cfgOf(n)
	if g == nil || len(g.Blocks) == 0 {
		return false
	}
	rangeX := b.rangeDischarges(n, p, m)

	type state struct{ touched, discharged, guarded bool }
	ok, any := true, false
	matchutil.Paths(g.Blocks[0], 0, state{}, func(blk *cfg.Block, i int, st state) (state, bool) {
		disch, ment := b.classify(n, blk.Nodes[i], p, m, rangeX)
		switch {
		case disch:
			st.discharged = true
		case ment && i == len(blk.Nodes)-1 && len(blk.Succs) == 2:
			// Branch condition mentioning p: both sides are p-guarded,
			// and the mention itself is not a touch.
			st.guarded = true
		case ment:
			st.touched = true
		}
		return st, !ok
	}, func(blk *cfg.Block, st state) []*cfg.Block {
		if len(blk.Succs) == 0 {
			switch {
			case st.discharged:
				any = true
			case st.guarded && !st.touched:
				// Guard-exempt exit: the p-trivial base case.
			default:
				ok = false
			}
		}
		return blk.Succs
	})
	return ok && any
}

// classify inspects one CFG node: does it discharge p's obligation in
// domain d, and does it otherwise mention p? Function literals are not
// descended into for discharge credit — defining a closure that would
// release is not releasing — but a capture still counts as a mention.
func (b *builder) classify(n *callgraph.Node, node ast.Node, p types.Object, m *Matcher, rangeX map[ast.Node]bool) (discharge, mention bool) {
	info := n.Pkg.Info
	ast.Inspect(node, func(q ast.Node) bool {
		if discharge {
			return false
		}
		if rangeX[q] {
			discharge = true
			return false
		}
		switch s := q.(type) {
		case *ast.FuncLit:
			if matchutil.Mentions(info, s, p) {
				mention = true
			}
			return false
		case *ast.GoStmt:
			if matchutil.Mentions(info, s.Call, p) {
				discharge = true
			}
			return false
		case *ast.DeferStmt:
			// A deferred release covers every path at once; a deferred
			// call that merely mentions p does not.
			if b.subtreeReleases(n, s.Call, p, m) {
				discharge = true
			} else if matchutil.Mentions(info, s.Call, p) {
				mention = true
			}
			return false
		case *ast.CallExpr:
			if b.callDischarges(n, s, p, m) {
				discharge = true
				return false
			}
			return true
		case *ast.AssignStmt:
			if matchutil.StoresAway(info, s, p) {
				discharge = true
				return false
			}
			return true
		case *ast.SendStmt:
			if matchutil.Mentions(info, s.Value, p) {
				discharge = true
			}
			return false
		case *ast.Ident:
			if matchutil.Obj(info, s) == p {
				mention = true
			}
		}
		return true
	})
	if discharge {
		mention = false
	}
	return discharge, mention
}

// callDischarges reports whether one call settles p's obligation: a
// domain release mentioning p, or a statically resolved callee that
// consumes at p's position.
func (b *builder) callDischarges(n *callgraph.Node, call *ast.CallExpr, p types.Object, m *Matcher) bool {
	return releaseMentions(n.Pkg.Info, call, p, m) || b.prog.consumesObj(n.Pkg, call, p, m.Domain)
}

// subtreeReleases reports a domain release (or consuming static call) of
// p anywhere under node, descending into function literals — used for
// defer, where the literal body runs on this function's exit paths.
func (b *builder) subtreeReleases(n *callgraph.Node, node ast.Node, p types.Object, m *Matcher) bool {
	found := false
	ast.Inspect(node, func(q ast.Node) bool {
		if found {
			return false
		}
		if call, ok := q.(*ast.CallExpr); ok && b.callDischarges(n, call, p, m) {
			found = true
			return false
		}
		return true
	})
	return found
}

// releaseMentions reports whether call is one of the domain's releases
// (per the table) whose released operand mentions p.
func releaseMentions(info *types.Info, call *ast.CallExpr, p types.Object, m *Matcher) bool {
	for _, op := range m.Release(info, call) {
		if matchutil.Mentions(info, op, p) {
			return true
		}
	}
	return false
}

// objPositions returns the summary parameter positions p occupies in the
// call: 0 when p is the receiver, i+1 when p is argument i.
func objPositions(info *types.Info, call *ast.CallExpr, p types.Object) []int {
	var out []int
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && matchutil.Obj(info, id) == p {
			out = append(out, 0)
		}
	}
	for i, a := range call.Args {
		if id, ok := ast.Unparen(a).(*ast.Ident); ok && matchutil.Obj(info, id) == p {
			out = append(out, i+1)
		}
	}
	return out
}

// rangeDischarges finds `for _, v := range p { ... v.Release() ... }`
// shapes: the range's X expression becomes a discharge node for p when
// the body releases the element variable. The CFG materializes X as an
// ordinary node in the pre-loop block, so tagging it is enough.
func (b *builder) rangeDischarges(n *callgraph.Node, p types.Object, m *Matcher) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	info := n.Pkg.Info
	ast.Inspect(n.Decl.Body, func(q ast.Node) bool {
		rs, ok := q.(*ast.RangeStmt)
		if !ok {
			return true
		}
		xid, ok := rs.X.(*ast.Ident)
		if !ok || matchutil.Obj(info, xid) != p {
			return true
		}
		vid, ok := rs.Value.(*ast.Ident)
		if !ok {
			return true
		}
		vObj := matchutil.Obj(info, vid)
		if vObj == nil {
			return true
		}
		released := false
		ast.Inspect(rs.Body, func(q ast.Node) bool {
			if released {
				return false
			}
			if call, ok := q.(*ast.CallExpr); ok && releaseMentions(info, call, vObj, m) {
				released = true
			}
			return true
		})
		if released {
			out[rs.X] = true
		}
		return true
	})
	return out
}

// returns records the result positions of fn that may carry a fresh
// region obligation to the caller: a returned variable bound from
// View.Allocate, the Allocate call returned directly, or the same
// propagated through a statically resolved callee's Returns.
func (b *builder) returns(n *callgraph.Node, s *Summary) {
	info := n.Pkg.Info
	regionVars := make(map[types.Object]bool)
	matchutil.InspectSkippingFuncLits(n.Decl.Body, func(m ast.Node) {
		as, ok := m.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		for _, k := range b.callReturnsRegion(n, call) {
			if k < len(as.Lhs) {
				if id, ok := as.Lhs[k].(*ast.Ident); ok && id.Name != "_" {
					if o := matchutil.Obj(info, id); o != nil {
						regionVars[o] = true
					}
				}
			}
		}
	})
	matchutil.InspectSkippingFuncLits(n.Decl.Body, func(m ast.Node) {
		ret, ok := m.(*ast.ReturnStmt)
		if !ok {
			return
		}
		if len(ret.Results) == 1 {
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
				for _, k := range b.callReturnsRegion(n, call) {
					s.Returns[Region][k] = true
				}
			}
		}
		for k, r := range ret.Results {
			if id, ok := ast.Unparen(r).(*ast.Ident); ok && regionVars[matchutil.Obj(info, id)] {
				s.Returns[Region][k] = true
			}
		}
	})
}

// callReturnsRegion returns the result positions of call that carry a
// region: the table's region acquire, or every position all of a
// statically resolved callee's summaries mark.
func (b *builder) callReturnsRegion(n *callgraph.Node, call *ast.CallExpr) []int {
	if out := MatcherOf(Region).Acquire(n.Pkg.Info, call); out != nil {
		return out
	}
	sums := b.prog.summariesOf(n.Pkg, call)
	if len(sums) == 0 {
		return nil
	}
	var out []int
	for k := range sums[0].Returns[Region] {
		if !slices.ContainsFunc(sums, func(s *Summary) bool { return !s.Returns[Region][k] }) {
			out = append(out, k)
		}
	}
	return out
}

// pollsCtx reports whether fn observes ctx cancellation: a CtxErr/Err
// call in its own body (outside nested literals, mirroring ctxpoll), or a
// statically resolved call all of whose targets poll.
func (b *builder) pollsCtx(n *callgraph.Node) bool {
	found := false
	matchutil.InspectSkippingFuncLits(n.Decl.Body, func(m ast.Node) {
		call, ok := m.(*ast.CallExpr)
		if found || !ok {
			return
		}
		switch matchutil.CalleeName(call) {
		case "CtxErr", "Err":
			found = true
			return
		}
		sums := b.prog.summariesOf(n.Pkg, call)
		found = len(sums) > 0 && !slices.ContainsFunc(sums, func(s *Summary) bool { return !s.PollsCtx })
	})
	return found
}

// brackets collects the bracket-domain calls (per the table's Enter and
// Release matchers) fn issues on behalf of its parameters. Exits must hold
// on all paths (or be deferred) to count; Enters count anywhere, since
// they create an obligation.
func (b *builder) brackets(n *callgraph.Node, params []types.Object, m *Matcher) (exits, enters []Pair) {
	info := n.Pkg.Info
	paramIdx := make(map[types.Object]int)
	for i, p := range params {
		if p != nil {
			paramIdx[p] = i
		}
	}
	// pairOf renders a matched call's operands — receiver, then the key
	// argument if the bracket has one — in parameter positions.
	pairOf := func(ops []ast.Expr) (Pair, bool) {
		if len(ops) == 0 {
			return Pair{}, false
		}
		rid, ok := ast.Unparen(ops[0]).(*ast.Ident)
		if !ok {
			return Pair{}, false
		}
		ri, ok := paramIdx[matchutil.Obj(info, rid)]
		if !ok {
			return Pair{}, false
		}
		if len(ops) == 1 {
			return Pair{Recv: ri, Arg: -1}, true
		}
		switch a := ast.Unparen(ops[1]).(type) {
		case *ast.Ident:
			if ai, ok := paramIdx[matchutil.Obj(info, a)]; ok {
				return Pair{Recv: ri, Arg: ai}, true
			}
		case *ast.BasicLit:
			return Pair{Recv: ri, Arg: -1, ArgLit: a.Value}, true
		}
		return Pair{}, false
	}
	exitOf := func(q ast.Node) (Pair, bool) {
		if call, ok := q.(*ast.CallExpr); ok {
			return pairOf(m.Release(info, call))
		}
		return Pair{}, false
	}

	seenExit := make(map[Pair]bool)
	seenEnter := make(map[Pair]bool)
	deferred := make(map[Pair]bool)
	matchutil.InspectSkippingFuncLits(n.Decl.Body, func(q ast.Node) {
		switch s := q.(type) {
		case *ast.DeferStmt:
			ast.Inspect(s.Call, func(q ast.Node) bool {
				if pr, ok := exitOf(q); ok {
					deferred[pr], seenExit[pr] = true, true
				}
				return true
			})
		case *ast.CallExpr:
			if pr, ok := exitOf(s); ok {
				seenExit[pr] = true
			}
			if pr, ok := pairOf(m.Enter(info, s)); ok && !seenEnter[pr] {
				seenEnter[pr] = true
				enters = append(enters, pr)
			}
		}
	})
	for pr := range seenExit {
		if deferred[pr] || allPathsHit(b.cfgOf(n), func(q ast.Node) bool {
			got, ok := exitOf(q)
			return ok && got == pr
		}) {
			exits = append(exits, pr)
		}
	}
	slices.SortFunc(exits, comparePairs)
	slices.SortFunc(enters, comparePairs)
	return exits, enters
}

// allPathsHit reports that every path from entry to a function exit
// passes a node (outside nested literals) that satisfies hit.
func allPathsHit(g *cfg.CFG, hit func(ast.Node) bool) bool {
	if g == nil || len(g.Blocks) == 0 {
		return false
	}
	ok := true
	matchutil.Paths(g.Blocks[0], 0, struct{}{}, func(blk *cfg.Block, i int, _ struct{}) (struct{}, bool) {
		found := false
		matchutil.InspectSkippingFuncLits(blk.Nodes[i], func(q ast.Node) { found = found || hit(q) })
		return struct{}{}, found
	}, func(blk *cfg.Block, _ struct{}) []*cfg.Block {
		ok = ok && len(blk.Succs) > 0
		return blk.Succs
	})
	return ok
}

func comparePairs(a, b Pair) int {
	return cmp.Or(cmp.Compare(a.Recv, b.Recv), cmp.Compare(a.Arg, b.Arg), cmp.Compare(a.ArgLit, b.ArgLit))
}
