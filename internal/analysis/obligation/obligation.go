// Package obligation is roadvet's one resource-obligation engine. Every
// conservation analyzer in the suite proves the same theorem — each
// acquire reaches a release, an ownership handoff, or an exempt error
// return on every control-flow path out of the acquiring function — over a
// different resource. A Row states what differs (which summary.Domain,
// which handoffs discharge, which error-pair rule, the diagnostic texts);
// the acquire and release matchers come from the domain table the
// summaries share (summary.Table); the engine owns everything else exactly
// once: site collection per function body and literal, the releasing-
// closure map, defer-covers-all-exits, escape-to-store, the memoised CFG
// path walk and its fall-off handling, per-site de-duplication.
//
// A site is keyed by a types.Object (the variable bound to the acquiring
// call's result) or, for bracket domains such as the in-flight gauge, by
// the rendered operands of the opening call ("src.route", "si.index"):
// textual matching keeps loop brackets — one Enter per element, Exits in a
// deferred loop over the same elements — paired.
//
// The pass is interprocedural through the whole-program summary table: a
// call whose every static target consumes the obligation's position (or
// closes its bracket) counts as the release, and a helper whose summary
// returns a fresh obligation (or opens a bracket) creates one at its call
// sites — so a leak split across helpers is caught without annotations.
package obligation

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/callgraph"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/matchutil"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/summary"
)

// Handoff is the set of ways an obligation may leave a function without
// being released there. A call to a callee whose summary consumes the
// obligation always counts; it is not a choice a row makes.
type Handoff uint8

const (
	// Return: returned to the caller.
	Return Handoff = 1 << iota
	// Alias: returned through a local built from it
	// (`ref := T{Ptr: p}; return ref`).
	Alias
	// Store: written into a non-local structure (field, element, pointee).
	Store
	// Send: sent on a channel to the consumer that owns it from there.
	Send
	// Go: given to a spawned goroutine.
	Go
	// Unresolved: passed to a callee the summary table cannot see (dynamic
	// or out of program), which gets the benefit of the doubt.
	Unresolved
	// Range: released element by element in a range loop — an empty run
	// has nothing to release, so the loop-skipped path is no leak.
	Range
)

// ErrRule is how the error paired with an acquire (`x, err := acquire()`)
// exempts paths on which the acquire failed.
type ErrRule uint8

const (
	// ErrNone: the acquire cannot fail.
	ErrNone ErrRule = iota
	// ErrPrunes: a branch on `err != nil` / `err == nil` is followed only
	// on its nil side, while err still holds the acquire's result.
	ErrPrunes
	// ErrExempts: a return mentioning err is exempt until the first use of
	// the acquired value — on failure the producer returned nothing.
	ErrExempts
)

// Row is one domain's line of the obligation table.
type Row struct {
	// Name and Doc are the analyzer's; Name is the contract of
	// //roadvet:ignore <analyzer> and the -json artifact.
	Name, Doc string
	// Domain selects the acquire/release matchers (summary.MatcherOf) and
	// the summary column that credits helper calls.
	Domain summary.Domain
	// SkipPkg names a package the row does not apply to.
	SkipPkg  string
	Handoffs Handoff
	ErrPair  ErrRule
	// Inspectors are callees that look at the acquired value without
	// taking ownership: a mention inside one is neither a Return nor an
	// Unresolved handoff.
	Inspectors map[string]bool
	// LeakAtReturn (name, acquire position) and LeakAtEnd (name) are the
	// diagnostics of an object-keyed row, reported at the leaking return
	// and at the acquire; Unbalanced (receiver, argument) is the one
	// diagnostic of a bracket-keyed row, reported at the opening call.
	LeakAtReturn, LeakAtEnd, Unbalanced string
	// Discarded, if set, is reported for an acquiring call used as a
	// statement or whose obligation-carrying result is assigned to _.
	Discarded string
	// Extra is the domain's one additional scan, run after the engine.
	Extra func(pass *analysis.Pass, prog *summary.Program)
}

// New builds the row's analyzer.
func New(row Row) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:     row.Name,
		Doc:      row.Doc,
		Requires: []*analysis.Analyzer{ctrlflow.Analyzer, summary.Analyzer},
		Run: func(pass *analysis.Pass) (interface{}, error) {
			if row.SkipPkg != "" && pass.Pkg.Name() == row.SkipPkg {
				return nil, nil
			}
			e := &engine{Row: row, pass: pass, info: pass.TypesInfo, prog: summary.FromPass(pass), m: summary.MatcherOf(row.Domain)}
			cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncDecl:
						if n.Body != nil {
							e.checkFunc(e.ownBrackets(n), n.Body, cfgs.FuncDecl(n))
						}
					case *ast.FuncLit:
						e.checkFunc(nil, n.Body, cfgs.FuncLit(n))
					case *ast.ExprStmt:
						e.checkDiscard(n.X, nil)
					case *ast.AssignStmt:
						if len(n.Rhs) == 1 {
							e.checkDiscard(n.Rhs[0], n.Lhs)
						}
					}
					return true
				})
			}
			if row.Extra != nil {
				row.Extra(pass, e.prog)
			}
			return nil, nil
		},
	}
}

// engine is one row applied to one package.
type engine struct {
	Row
	pass *analysis.Pass
	info *types.Info
	prog *summary.Program
	m    *summary.Matcher
	// closures maps the closure variables of the function under analysis
	// (name := func(...){...}) to their literals, so `return abort(err)`
	// counts as a release of what the abort helper releases; busy guards
	// the look through a closure against closures that call each other.
	closures map[types.Object]*ast.FuncLit
	busy     map[*ast.FuncLit]bool
}

// bracket identifies one bracket-keyed obligation: the rendered receiver
// and key argument of the call that opened it.
type bracket struct{ recv, arg string }

// site is one acquire: the call, and what the obligation it creates is
// keyed by.
type site struct {
	call *ast.CallExpr
	pos  token.Pos    // where the acquire is reported
	obj  types.Object // object-keyed: the variable holding the acquired value
	key  bracket      // bracket-keyed
	err  types.Object // the paired error variable, if the acquire binds one
	// aliases are local variables whose value was built from obj.
	aliases map[types.Object]bool
}

// acquireCall returns the call behind the right-hand side e, looking
// through parentheses and a type assertion (`pool.Get().(*T)`).
func acquireCall(e ast.Expr) *ast.CallExpr {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, _ := e.(*ast.CallExpr)
	return call
}

// acquired returns the result positions of call that carry a fresh
// obligation: the table's acquire, or result 0 of an unexported helper
// whose summary returns one ("constructor hands ownership").
func (e *engine) acquired(call *ast.CallExpr) []int {
	if e.m.Acquire == nil {
		return nil
	}
	if idx := e.m.Acquire(e.info, call); idx != nil {
		return idx
	}
	if e.prog.CallReturns(e.pass, call, e.Domain) {
		return []int{0}
	}
	return nil
}

// checkDiscard reports an acquire whose obligation is dropped on the spot
// — it can never be released. lhs is nil for a bare call statement.
func (e *engine) checkDiscard(rhs ast.Expr, lhs []ast.Expr) {
	call := acquireCall(rhs)
	if e.Discarded == "" || call == nil {
		return
	}
	for _, i := range e.acquired(call) {
		if lhs == nil || (i < len(lhs) && isBlank(lhs[i])) {
			e.pass.Reportf(call.Pos(), "%s", e.Discarded)
			return
		}
	}
}

func isBlank(x ast.Expr) bool {
	id, ok := x.(*ast.Ident)
	return ok && id.Name == "_"
}

// checkFunc runs the path analysis over one function body. Nested function
// literals are analyzed by their own checkFunc call; their statements are
// skipped here. Brackets in own are the function's summary-exported
// obligations — settled by its callers, not here.
func (e *engine) checkFunc(own map[bracket]bool, body *ast.BlockStmt, g *cfg.CFG) {
	if g == nil {
		return
	}
	sites := e.collect(body, own)
	if len(sites) == 0 {
		return
	}
	e.closures = make(map[types.Object]*ast.FuncLit)
	e.busy = make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			id, isID := as.Lhs[0].(*ast.Ident)
			if lit, isLit := as.Rhs[0].(*ast.FuncLit); isID && isLit {
				e.closures[matchutil.Obj(e.info, id)] = lit
			}
		}
		return true
	})
	for _, s := range sites {
		if !e.coveredByBody(body, s) {
			e.walk(g, s)
		}
	}
}

// collect finds the acquire sites in body, excluding nested function
// literals: for an object-keyed domain the identifiers an assignment
// binds to the obligation-carrying results of an acquiring call; for a
// bracket-keyed domain every opening call, direct or through a helper
// whose summary net-opens brackets on the caller's behalf.
func (e *engine) collect(body *ast.BlockStmt, own map[bracket]bool) []*site {
	var sites []*site
	var as *ast.AssignStmt // the latest single-call assignment seen
	matchutil.InspectSkippingFuncLits(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			if a, ok := n.(*ast.AssignStmt); ok && len(a.Rhs) == 1 {
				as = a
			}
			return
		}
		var lhs []ast.Expr
		if as != nil && acquireCall(as.Rhs[0]) == call {
			lhs = as.Lhs
		}
		var errObj types.Object
		if len(lhs) > 0 {
			if o := e.ident(lhs[len(lhs)-1]); o != nil && matchutil.IsErrorType(o.Type()) {
				errObj = o
			}
		}
		for k := range e.opened(call) {
			if !own[k] {
				sites = append(sites, &site{call: call, pos: call.Pos(), key: k, err: errObj})
			}
		}
		if lhs == nil {
			return
		}
		for _, i := range e.acquired(call) {
			if i < len(lhs) {
				if o := e.ident(lhs[i]); o != nil {
					sites = append(sites, &site{call: call, pos: as.Pos(), obj: o, err: errObj})
				}
			}
		}
	})
	return sites
}

// ident resolves a non-blank identifier expression to its object.
func (e *engine) ident(x ast.Expr) types.Object {
	if id, ok := x.(*ast.Ident); ok && id.Name != "_" {
		return matchutil.Obj(e.info, id)
	}
	return nil
}

// coveredByBody reports the whole-body facts that settle a site without a
// path walk: a defer that releases it (covering every exit at once), a
// store into a non-local structure (ownership handed to whoever owns the
// structure), or an element-wise release loop. It also records the site's
// aliases for the walk.
func (e *engine) coveredByBody(body *ast.BlockStmt, s *site) bool {
	covered := false
	s.aliases = make(map[types.Object]bool)
	matchutil.InspectSkippingFuncLits(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.DeferStmt:
			covered = covered || e.callReleases(n.Call, s)
		case *ast.RangeStmt:
			if v := e.ident(n.Value); e.Handoffs&Range != 0 && v != nil && matchutil.Mentions(e.info, n.X, s.obj) {
				covered = covered || e.releasedIn(n.Body, &site{obj: v})
			}
		case *ast.AssignStmt:
			covered = covered || e.Handoffs&Store != 0 && matchutil.StoresAway(e.info, n, s.obj)
			for i, r := range n.Rhs {
				// A call result is not an alias: `err := v.Write(b, ptr)`
				// consumes the pointer, it does not re-package ownership
				// the way `ref := T{Ptr: ptr}` does.
				if _, isCall := ast.Unparen(r).(*ast.CallExpr); !isCall && i < len(n.Lhs) && matchutil.Mentions(e.info, r, s.obj) {
					if o := e.ident(n.Lhs[i]); o != nil {
						s.aliases[o] = true
					}
				}
			}
		}
	})
	return covered
}

// pathState is the walk's per-path condition, the union of what the rows
// need: whether the obligation has been released or handed off, whether
// the paired error still holds the acquire's result (ErrPrunes), and
// whether the acquired value has been used at all (ErrExempts).
type pathState struct{ released, errValid, used bool }

// walk explores every path from the acquire to a function exit and
// reports paths that neither release the obligation nor pass it outward.
func (e *engine) walk(g *cfg.CFG, s *site) {
	start, at := locate(g, s.call)
	if start == nil {
		return
	}
	anchor := start.Nodes[at]
	reported := make(map[token.Pos]bool)
	leak := func(ret *ast.ReturnStmt) {
		pos, msg := s.pos, ""
		switch {
		case s.obj == nil:
			msg = fmt.Sprintf(e.Unbalanced, s.key.recv, s.key.arg)
		case ret != nil:
			pos, msg = ret.Pos(), fmt.Sprintf(e.LeakAtReturn, s.obj.Name(), e.pass.Fset.Position(s.pos))
		default:
			msg = fmt.Sprintf(e.LeakAtEnd, s.obj.Name())
		}
		if !reported[pos] {
			reported[pos] = true
			e.pass.Report(analysis.Diagnostic{Pos: pos, Message: msg})
		}
	}
	first := pathState{errValid: e.ErrPair == ErrPrunes && s.err != nil}
	matchutil.Paths(start, at+1, first, func(b *cfg.Block, i int, st pathState) (pathState, bool) {
		n := b.Nodes[i]
		if !st.released && e.nodeDischarges(n, s) {
			st.released = true
		}
		if st.errValid && n != anchor && assignsTo(e.info, n, s.err) {
			st.errValid = false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			// `refs, err := acquire(); if err != nil { return err }`:
			// returning the paired error before touching refs is the
			// failure path — the producer returned no references.
			exempt := e.ErrPair == ErrExempts && !st.used && matchutil.Mentions(e.info, ret, s.err)
			if !st.released && !exempt && !e.returnCarries(ret, s) {
				leak(ret)
			}
			return st, true
		}
		if e.ErrPair == ErrExempts && !st.used && matchutil.Mentions(e.info, n, s.obj) {
			st.used = true
		}
		return st, false
	}, func(b *cfg.Block, st pathState) []*cfg.Block {
		if len(b.Succs) == 0 {
			// Falling off the function's end with the obligation open is
			// a leak; panic-terminated blocks carry a final CallExpr node
			// and are not flagged.
			if !st.released && !matchutil.EndsInNoReturnCall(b) {
				leak(nil)
			}
		}
		// A trailing `err != nil` / `err == nil` condition on the paired
		// error means the obligation exists only on the nil branch.
		if st.errValid && len(b.Succs) == 2 {
			switch errCheck(e.info, b, s.err) {
			case token.NEQ:
				return b.Succs[1:]
			case token.EQL:
				return b.Succs[:1]
			}
		}
		return b.Succs
	})
}

// locate finds the CFG node holding the acquiring call.
func locate(g *cfg.CFG, call *ast.CallExpr) (*cfg.Block, int) {
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			if matchutil.Contains(n, call) {
				return b, i
			}
		}
	}
	return nil, 0
}

// nodeDischarges reports whether the CFG node releases or hands off the
// site's obligation. Function literals are not descended into — defining
// a closure that would release is not releasing (callReleases still
// recognizes an immediately-invoked literal through the CallExpr itself).
func (e *engine) nodeDischarges(n ast.Node, s *site) bool {
	switch st := n.(type) {
	case *ast.SendStmt:
		if e.Handoffs&Send != 0 && matchutil.Mentions(e.info, st.Value, s.obj) {
			return true
		}
	case *ast.GoStmt:
		if e.Handoffs&Go != 0 && matchutil.Mentions(e.info, st.Call, s.obj) {
			return true
		}
	}
	found := false
	matchutil.InspectSkippingFuncLits(n, func(m ast.Node) {
		if call, ok := m.(*ast.CallExpr); ok && !found {
			found = e.callReleases(call, s) || e.unresolvedTakes(call, s)
		}
	})
	return found
}

// callReleases reports whether one call releases the site's obligation: a
// release per the domain table, a call to a releasing closure (bound or
// immediately invoked), or a call whose statically known targets all
// consume the obligation's position or close its bracket ("helper
// releases its argument", via the summary table).
func (e *engine) callReleases(call *ast.CallExpr, s *site) bool {
	if ops := e.m.Release(e.info, call); ops != nil {
		if s.obj == nil && bracketOf(ops) == s.key {
			return true
		}
		for _, op := range ops {
			if matchutil.Mentions(e.info, op, s.obj) {
				return true
			}
		}
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if lit := e.closures[matchutil.Obj(e.info, fun)]; lit != nil && e.releasedIn(lit, s) {
			return true
		}
	case *ast.FuncLit:
		if e.releasedIn(fun, s) {
			return true
		}
	}
	if s.obj == nil {
		return e.closed(call)[s.key]
	}
	return e.prog.CallConsumes(e.pass, call, s.obj, e.Domain)
}

// releasedIn reports a releasing call anywhere under n, nested literals
// included — used where the whole subtree runs on the path in question: a
// releasing closure's body, a range loop's body.
func (e *engine) releasedIn(n ast.Node, s *site) bool {
	lit, _ := n.(*ast.FuncLit)
	if e.busy[lit] {
		return false
	}
	if lit != nil {
		e.busy[lit] = true
		defer delete(e.busy, lit)
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok && !found {
			found = e.callReleases(call, s)
		}
		return !found
	})
	return found
}

// unresolvedTakes is the Unresolved handoff: obj is an argument of a call
// the summary table cannot see, outside inspector calls. append grows a
// run in place — the result (re)assignment is its own acquire site — so
// only appending obj INTO another run counts. A statically resolved
// in-program callee gets no such benefit of the doubt: its summary must
// consume obj's position (callReleases), or the call is not a handoff.
func (e *engine) unresolvedTakes(call *ast.CallExpr, s *site) bool {
	name := matchutil.CalleeName(call)
	if e.Handoffs&Unresolved == 0 || e.Inspectors[name] || e.m.Release(e.info, call) != nil || e.prog.StaticallyResolved(e.pass, call) {
		return false
	}
	args := call.Args
	if id, ok := call.Fun.(*ast.Ident); ok && name == "append" && len(args) > 0 {
		if _, isBuiltin := matchutil.Obj(e.info, id).(*types.Builtin); isBuiltin {
			args = args[1:]
		}
	}
	for _, a := range args {
		if e.mentionsOutsideInspectors(a, s.obj) {
			return true
		}
	}
	return false
}

// returnCarries reports whether the return's results mention the acquired
// value outside inspector calls (`return pagebuf.TotalLen(refs)` returns a
// length, not the refs) or name a local alias of it — ownership moves to
// the caller.
func (e *engine) returnCarries(ret *ast.ReturnStmt, s *site) bool {
	for _, r := range ret.Results {
		if e.Handoffs&Return != 0 && e.mentionsOutsideInspectors(r, s.obj) {
			return true
		}
		if o := e.ident(r); e.Handoffs&Alias != 0 && o != nil && s.aliases[o] {
			return true
		}
	}
	return false
}

// mentionsOutsideInspectors is matchutil.Mentions, except that references
// inside the row's inspector calls do not count:
// fmt.Errorf("...", TotalLen(refs)) measures the run, it does not consume
// it.
func (e *engine) mentionsOutsideInspectors(expr ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && e.Inspectors[matchutil.CalleeName(call)] {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && obj != nil && matchutil.Obj(e.info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// assignsTo reports whether the node assigns a new value to obj.
func assignsTo(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if as, ok := m.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if id, ok := l.(*ast.Ident); ok && matchutil.Obj(info, id) == obj {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// errCheck matches a block whose final node is `err != nil` or
// `err == nil` over the given error object, returning the comparison.
func errCheck(info *types.Info, b *cfg.Block, errObj types.Object) token.Token {
	if len(b.Nodes) == 0 {
		return token.ILLEGAL
	}
	bin, ok := b.Nodes[len(b.Nodes)-1].(*ast.BinaryExpr)
	if !ok || (bin.Op != token.NEQ && bin.Op != token.EQL) {
		return token.ILLEGAL
	}
	isErr := func(x ast.Expr) bool {
		id, ok := x.(*ast.Ident)
		return ok && matchutil.Obj(info, id) == errObj
	}
	if (isErr(bin.X) && matchutil.IsNil(bin.Y)) || (isErr(bin.Y) && matchutil.IsNil(bin.X)) {
		return bin.Op
	}
	return token.ILLEGAL
}

// bracketOf renders the operands of a bracket call as its key.
func bracketOf(ops []ast.Expr) bracket {
	k := bracket{recv: types.ExprString(ops[0])}
	if len(ops) > 1 {
		k.arg = types.ExprString(ops[1])
	}
	return k
}

// opened returns the brackets call opens: the table's Enter, or — through
// the summary table — those any statically known target may open without
// closing (may-obligation, so the keys are unioned across targets).
func (e *engine) opened(call *ast.CallExpr) map[bracket]bool {
	if e.m.Enter == nil {
		return nil
	}
	if ops := e.m.Enter(e.info, call); ops != nil {
		return map[bracket]bool{bracketOf(ops): true}
	}
	acc := make(map[bracket]bool)
	for _, s := range e.prog.CallSummaries(e.pass, call) {
		for k := range callerKeys(call, netPairs(s.Enters[e.Domain], s.Exits[e.Domain])) {
			acc[k] = true
		}
	}
	return acc
}

// closed returns the caller-side brackets every statically known target
// of call closes on all paths (net of brackets it also opens) —
// must-credit, so the keys are intersected across targets.
func (e *engine) closed(call *ast.CallExpr) map[bracket]bool {
	var acc map[bracket]bool
	for _, s := range e.prog.CallSummaries(e.pass, call) {
		keys := callerKeys(call, netPairs(s.Exits[e.Domain], s.Enters[e.Domain]))
		if acc == nil {
			acc = keys
		}
		for k := range acc {
			if !keys[k] {
				delete(acc, k)
			}
		}
	}
	return acc
}

// ownBrackets renders the brackets fn's own summary exports as net open
// obligations, in terms of fn's parameter names. An unexported opening
// helper transfers its obligation to every caller through the summary
// table, so flagging its body too would double-report; exported functions
// keep the local diagnostic because out-of-program callers never see the
// summary.
func (e *engine) ownBrackets(fn *ast.FuncDecl) map[bracket]bool {
	obj, _ := e.info.Defs[fn.Name].(*types.Func)
	if e.m.Enter == nil || obj == nil {
		return nil
	}
	s := e.prog.Summary(callgraph.Key(obj))
	if s == nil || !s.Unexported {
		return nil
	}
	sig := obj.Type().(*types.Signature)
	return renderPairs(netPairs(s.Enters[e.Domain], s.Exits[e.Domain]), func(pos int) string {
		if pos == 0 && sig.Recv() != nil {
			return sig.Recv().Name()
		}
		if i := pos - 1; i >= 0 && i < sig.Params().Len() {
			return sig.Params().At(i).Name()
		}
		return ""
	})
}

// callerKeys renders a callee summary's pairs as caller-side bracket keys
// using the call's own receiver and argument expressions (summary
// position 0 is the receiver, position i the argument i-1), so a helper's
// brackets pair textually with the caller's literal ones.
func callerKeys(call *ast.CallExpr, pairs []summary.Pair) map[bracket]bool {
	return renderPairs(pairs, func(pos int) string {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && pos == 0 {
			return types.ExprString(sel.X)
		}
		if i := pos - 1; i >= 0 && i < len(call.Args) {
			return types.ExprString(call.Args[i])
		}
		return ""
	})
}

// renderPairs turns summary pairs into bracket keys, naming each
// parameter position through name; a pair with an unnameable position is
// dropped.
func renderPairs(pairs []summary.Pair, name func(pos int) string) map[bracket]bool {
	out := make(map[bracket]bool)
	for _, p := range pairs {
		k := bracket{recv: name(p.Recv), arg: p.ArgLit}
		if p.Arg >= 0 {
			k.arg = name(p.Arg)
		}
		if k.recv != "" && (p.Arg < 0 || k.arg != "") {
			out[k] = true
		}
	}
	return out
}

// netPairs returns the pairs of a not also present in b: a balanced
// helper (opening and closing the same bracket) neither credits nor
// obligates its caller.
func netPairs(a, b []summary.Pair) []summary.Pair {
	var out []summary.Pair
	for _, p := range a {
		if !slices.Contains(b, p) {
			out = append(out, p)
		}
	}
	return out
}
