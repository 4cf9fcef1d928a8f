// Package lockguard turns the data plane's mutex discipline into a
// compile-time proof. Struct fields annotated `//roadvet:guards <mu>`
// must be touched only while the named sibling mutex is held — the write
// lock for writes, either side of an RWMutex for reads. The lock set at
// each access is computed interprocedurally: a lock taken in a caller
// flows into the entry lock set of the package-private helpers it calls,
// so the lock-in-caller/access-in-callee split the runtime uses
// everywhere (locked sections factored into helpers) proves without any
// per-site annotation. Accesses the analysis cannot prove fail closed;
// the only escape hatch is an explicit `//roadvet:unguarded <reason>`
// site annotation (atomic fast paths, single-goroutine initialization
// before publish), and a hatch that covers a provable access is itself a
// finding, so the escape list can only shrink as the prover improves.
//
// The same lock sets prove that locks never nest: taking a guard mutex
// while the same mutex field is held on another value is a finding —
// for Shim.mu, the VM-lock rule that keeps transfer A→B locking (A, B)
// from deadlocking against transfer B→A locking (B, A).
package lockguard

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/matchutil"
)

// Analyzer is the lockguard pass.
var Analyzer = &analysis.Analyzer{
	Name:     "lockguard",
	Doc:      "prove that fields declared //roadvet:guards <mu> are only accessed with the mutex held",
	Requires: []*analysis.Analyzer{ctrlflow.Analyzer},
	Run:      run,
}

// Lock-set modes. A plain Mutex only grants modeW; an RWMutex grants
// modeR via RLock. Writes require modeW, reads accept either.
const (
	modeR = 1
	modeW = 2
)

// guardInfo is one `//roadvet:guards` declaration: the guarded field and
// the sibling mutex that protects it.
type guardInfo struct {
	owner string // struct type name, for diagnostics
	field string // guarded field name
	guard *types.Var
	gname string // guard field name
	rw    bool   // guard is an RWMutex
}

// lockKey identifies one held lock on one path: the rendered base
// expression the mutex was reached through plus the mutex field's object.
// Textual bases make `s := &pl.shards[i]; s.mu.Lock(); s.free = ...`
// line up, at the cost of treating re-bound names as the same lock — the
// syntactic-identity limit documented in DESIGN.md §12.
type lockKey struct {
	base  string
	guard *types.Var
}

// annot is one //roadvet:unguarded escape hatch. It covers accesses on
// its own line and the line directly below; one that covers nothing
// unprovable is stale and reported.
type annot struct {
	pos  token.Pos
	used bool
}

type checker struct {
	pass    *analysis.Pass
	cfgs    *ctrlflow.CFGs
	guarded map[*types.Var]guardInfo
	guards  map[*types.Var]string // mutex field named by a guards decl -> its struct's name
	decls   map[*types.Func]*ast.FuncDecl
	cand    map[*types.Func]bool            // helpers eligible for entry inference
	entries map[*types.Func]map[lockKey]int // inferred entry lock sets
	annots  map[string]map[int]*annot       // file -> line -> hatch

	// collect-phase state: entry-set contributions for the next round.
	collecting bool
	contrib    map[*types.Func]map[lockKey]int
	contribSet map[*types.Func]bool // false means still top (no site seen)
}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{
		pass:    pass,
		cfgs:    pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs),
		guarded: make(map[*types.Var]guardInfo),
		guards:  make(map[*types.Var]string),
		decls:   make(map[*types.Func]*ast.FuncDecl),
		cand:    make(map[*types.Func]bool),
		entries: make(map[*types.Func]map[lockKey]int),
		annots:  make(map[string]map[int]*annot),
	}
	c.collectGuards()
	c.collectAnnots()
	c.collectDecls()
	if len(c.guarded) > 0 {
		c.findCandidates()
		c.inferEntries()
		c.checkAll()
	}
	c.reportStale()
	return nil, nil
}

// collectGuards parses every `//roadvet:guards <mu>` field annotation and
// validates that the named guard is a mutex field of the same struct.
func (c *checker) collectGuards() {
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			byName := make(map[string]*types.Var)
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
						byName[name.Name] = v
					}
				}
			}
			for _, fld := range st.Fields.List {
				gname, ok := guardsDirective(fld)
				if !ok {
					continue
				}
				gv := byName[gname]
				rw, isMutex := mutexKind(gv)
				if gv == nil || !isMutex {
					c.pass.Reportf(fld.Pos(), "//roadvet:guards %s: struct %s has no sync.Mutex/RWMutex field named %q", gname, ts.Name.Name, gname)
					continue
				}
				c.guards[gv] = ts.Name.Name
				for _, name := range fld.Names {
					if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
						c.guarded[v] = guardInfo{owner: ts.Name.Name, field: name.Name, guard: gv, gname: gname, rw: rw}
					}
				}
			}
			return true
		})
	}
}

// guardsDirective extracts the mutex name from a field's doc or trailing
// comment.
func guardsDirective(fld *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, cm := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
			if rest, ok := strings.CutPrefix(text, "roadvet:guards"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					return fields[0], true
				}
			}
		}
	}
	return "", false
}

// mutexKind reports whether t names sync.Mutex (rw=false) or
// sync.RWMutex (rw=true). Matching is structural by type name, like the
// rest of roadvet, so fixtures can stub the sync types.
func mutexKind(v *types.Var) (rw, ok bool) {
	if v == nil {
		return false, false
	}
	t := v.Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	name := ""
	switch n := t.(type) {
	case *types.Named:
		name = n.Obj().Name()
	case *types.Alias:
		name = n.Obj().Name()
	}
	switch name {
	case "Mutex":
		return false, true
	case "RWMutex":
		return true, true
	}
	return false, false
}

// collectAnnots indexes every //roadvet:unguarded escape hatch by file
// and line.
func (c *checker) collectAnnots() {
	for _, f := range c.pass.Files {
		for _, cg := range f.Comments {
			for _, cm := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
				rest, ok := strings.CutPrefix(text, "roadvet:unguarded")
				if !ok {
					continue
				}
				if strings.TrimSpace(rest) == "" {
					c.pass.Reportf(cm.Pos(), "//roadvet:unguarded needs a reason: say why this access is safe without the guard")
					continue
				}
				pos := c.pass.Fset.Position(cm.Pos())
				if c.annots[pos.Filename] == nil {
					c.annots[pos.Filename] = make(map[int]*annot)
				}
				c.annots[pos.Filename][pos.Line] = &annot{pos: cm.Pos()}
			}
		}
	}
}

func (c *checker) collectDecls() {
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.decls[obj] = fd
			}
		}
	}
}

// findCandidates marks the functions whose entry lock set may be
// inferred from call sites: package-private, never used as a value, and
// (for methods) not shadowing an in-package interface method that could
// dispatch to them dynamically. Everything else — exported API, stored
// closures, interface implementations — gets the empty entry set: fail
// closed.
func (c *checker) findCandidates() {
	ifaceMethods := make(map[string]bool)
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if !ok {
				return true
			}
			for _, m := range it.Methods.List {
				for _, name := range m.Names {
					ifaceMethods[name.Name] = true
				}
			}
			return true
		})
	}
	for obj, fd := range c.decls {
		if ast.IsExported(obj.Name()) {
			continue
		}
		if fd.Recv != nil && ifaceMethods[obj.Name()] {
			continue
		}
		c.cand[obj] = true
	}
	// A use outside call position means the function escapes as a value
	// and can be invoked from anywhere with any lock set.
	for _, f := range c.pass.Files {
		matchutil.WalkWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := c.pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || !c.cand[obj] {
				return true
			}
			if !inCallPosition(id, stack) {
				delete(c.cand, obj)
			}
			return true
		})
	}
}

// inCallPosition reports whether the identifier is the callee of a
// direct call (possibly through a selector).
func inCallPosition(id *ast.Ident, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	parent := stack[len(stack)-1]
	if call, ok := parent.(*ast.CallExpr); ok {
		return call.Fun == id
	}
	sel, ok := parent.(*ast.SelectorExpr)
	if !ok || sel.Sel != id || len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	return ok && call.Fun == sel
}

// inferEntries computes the entry lock set of every candidate as the
// intersection of the (mapped) lock sets held at its call sites — a
// least fixpoint from the empty set upward, so recursion can never
// justify a lock no caller actually takes.
func (c *checker) inferEntries() {
	for round := 0; round < len(c.decls)+8; round++ {
		c.collecting = true
		c.contrib = make(map[*types.Func]map[lockKey]int)
		c.contribSet = make(map[*types.Func]bool)
		for obj, fd := range c.decls {
			c.flow(c.cfgs.FuncDecl(fd), c.entries[obj], false)
		}
		// Call sites inside function literals count too — a closure runs
		// with no provable lock set, so a candidate it calls bare must
		// lose any entry lock a locked caller would otherwise grant.
		for _, f := range c.pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					c.flow(c.cfgs.FuncLit(lit), nil, false)
				}
				return true
			})
		}
		c.collecting = false
		changed := false
		for obj := range c.cand {
			next := c.contrib[obj]
			if !c.contribSet[obj] {
				next = nil // never called in package: nothing provable
			}
			if !sameLockSet(c.entries[obj], next) {
				c.entries[obj] = next
				changed = true
			}
		}
		if !changed {
			return
		}
	}
	// Fixpoint overran its bound: keep the (safe, under-approximate)
	// current entries.
}

func sameLockSet(a, b map[lockKey]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, m := range a {
		if b[k] != m {
			return false
		}
	}
	return true
}

// checkAll verifies every function body: declarations with their
// inferred entry lock sets, function literals with the empty set (a
// closure may run on any goroutine at any time).
func (c *checker) checkAll() {
	for obj, fd := range c.decls {
		c.flow(c.cfgs.FuncDecl(fd), c.entries[obj], true)
	}
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.flow(c.cfgs.FuncLit(lit), nil, true)
			}
			return true
		})
	}
}

func (c *checker) reportStale() {
	for _, lines := range c.annots {
		for _, a := range lines {
			if !a.used {
				c.pass.Reportf(a.pos, "stale //roadvet:unguarded: every access it covers is provable (or gone); delete the annotation")
			}
		}
	}
}

// event is one lock operation, guarded-field access, or candidate call
// inside a CFG node, in source order.
type event struct {
	kind     int // 0 lock, 1 unlock, 2 access, 3 call
	key      lockKey
	mode     int // lock: granted mode; access: required mode
	deferred bool
	sel      *ast.SelectorExpr
	info     guardInfo
	call     *ast.CallExpr // the lock operation or the candidate call
	callee   *types.Func
}

const (
	evLock = iota
	evUnlock
	evAccess
	evCall
)

// flow walks the function's CFG with a per-path must-held lock set,
// collecting call-site contributions (inference rounds) or reporting
// unprovable accesses (check pass).
func (c *checker) flow(g *cfg.CFG, entry map[lockKey]int, check bool) {
	if g == nil || len(g.Blocks) == 0 {
		return
	}
	type state struct {
		block int32
		held  string
	}
	seen := make(map[state]bool)
	reported := make(map[token.Pos]bool)
	budget := 4096

	var visit func(b *cfg.Block, held map[lockKey]int)
	visit = func(b *cfg.Block, held map[lockKey]int) {
		st := state{block: b.Index, held: renderLockSet(held)}
		if seen[st] || budget <= 0 {
			return
		}
		budget--
		seen[st] = true
		cur := copyLockSet(held)
		for _, n := range b.Nodes {
			for _, ev := range c.eventsIn(n) {
				switch ev.kind {
				case evLock:
					if check && !reported[ev.call.Pos()] && holdsOther(cur, ev.key) {
						reported[ev.call.Pos()] = true
						c.pass.Reportf(ev.call.Pos(), "nested lock acquisition: %s.%s taken while another %s.%s is held; no goroutine may hold two at once (AB/BA deadlock)",
							ev.key.base, ev.key.guard.Name(), c.guards[ev.key.guard], ev.key.guard.Name())
					}
					if !ev.deferred && ev.mode > cur[ev.key] {
						cur[ev.key] = ev.mode
					}
				case evUnlock:
					// A deferred unlock releases at function exit; the
					// lock stays held for the rest of the body.
					if !ev.deferred {
						delete(cur, ev.key)
					}
				case evAccess:
					if check && cur[ev.key] < ev.mode && !reported[ev.sel.Sel.Pos()] {
						reported[ev.sel.Sel.Pos()] = true
						c.reportAccess(ev, cur[ev.key])
					}
				case evCall:
					// A deferred call runs under whatever is held at
					// function exit, which this forward pass does not
					// model: contribute nothing (fail closed).
					if c.collecting && !ev.deferred {
						c.contribute(ev.callee, c.mapHeld(cur, ev.call, c.decls[ev.callee]))
					}
				}
			}
		}
		for _, s := range b.Succs {
			visit(s, cur)
		}
	}
	visit(g.Blocks[0], entry)
}

// holdsOther reports whether the lock set holds the key's mutex field on
// another base: two locks of one field nest, and two goroutines taking
// them in opposite orders deadlock.
func holdsOther(held map[lockKey]int, key lockKey) bool {
	for k := range held {
		if k.guard == key.guard && k.base != key.base {
			return true
		}
	}
	return false
}

// reportAccess emits the fail-closed diagnostic for one unproven access,
// unless an unguarded hatch covers its line.
func (c *checker) reportAccess(ev event, got int) {
	pos := c.pass.Fset.Position(ev.sel.Sel.Pos())
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if a := c.annots[pos.Filename][line]; a != nil {
			a.used = true
			return
		}
	}
	verb := "read"
	if ev.mode == modeW {
		verb = "write"
	}
	base := types.ExprString(ev.sel.X)
	detail := fmt.Sprintf("%s.%s is not provably held", base, ev.info.gname)
	if got == modeR && ev.mode == modeW {
		detail = fmt.Sprintf("only the read side of %s.%s is held; writes need %s.%s.Lock", base, ev.info.gname, base, ev.info.gname)
	}
	c.pass.Reportf(ev.sel.Sel.Pos(), "unguarded %s of %s.%s: %s (declared //roadvet:guards %s)", verb, ev.info.owner, ev.info.field, detail, ev.info.gname)
}

// contribute intersects one call site's mapped lock set into the
// callee's next entry set.
func (c *checker) contribute(callee *types.Func, mapped map[lockKey]int) {
	if !c.cand[callee] {
		return
	}
	if !c.contribSet[callee] {
		c.contribSet[callee] = true
		c.contrib[callee] = mapped
		return
	}
	cur := c.contrib[callee]
	for k, m := range cur {
		got := mapped[k]
		if got == 0 {
			delete(cur, k)
		} else if got < m {
			cur[k] = got
		}
	}
}

// mapHeld translates the caller's held locks into the callee's
// namespace: a lock rooted at the receiver argument or at a positional
// argument is renamed to the callee's receiver/parameter name. A lock the
// callee cannot name stays held under the anonymous base "", which no
// field access renders to: it proves no access, but a nested take of the
// same mutex field in the callee is still found.
func (c *checker) mapHeld(held map[lockKey]int, call *ast.CallExpr, fd *ast.FuncDecl) map[lockKey]int {
	if fd == nil || len(held) == 0 {
		return nil
	}
	rename := make(map[string]string)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		if name := fd.Recv.List[0].Names[0].Name; name != "_" {
			rename[normExprString(sel.X)] = name
		}
	}
	var params []string
	for _, p := range fd.Type.Params.List {
		for _, name := range p.Names {
			params = append(params, name.Name)
		}
	}
	for i, arg := range call.Args {
		if i >= len(params) {
			break
		}
		if params[i] == "_" {
			continue
		}
		rename[normExprString(arg)] = params[i]
	}
	out := make(map[lockKey]int, len(held))
	for k, m := range held {
		key := lockKey{base: rename[k.base], guard: k.guard}
		out[key] = max(out[key], m)
	}
	return out
}

// normExprString renders an argument expression for base matching,
// unwrapping parens and a leading & (the callee sees the same object
// through the pointer).
func normExprString(e ast.Expr) string {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	return types.ExprString(e)
}

// eventsIn extracts the lock operations, guarded accesses, and candidate
// calls of one CFG node in source order. Nested function literals are
// separate functions (checked with an empty lock set) and are skipped.
func (c *checker) eventsIn(n ast.Node) []event {
	var evs []event
	deferred := false
	if d, ok := n.(*ast.DeferStmt); ok {
		deferred = true
		n = d.Call
	}
	matchutil.WalkWithStack(n, func(m ast.Node, stack []ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		switch x := m.(type) {
		case *ast.CallExpr:
			if ev, ok := c.lockEvent(x); ok {
				ev.deferred = deferred
				evs = append(evs, ev)
				return true
			}
			if callee := c.staticCallee(x); callee != nil {
				evs = append(evs, event{kind: evCall, call: x, callee: callee, deferred: deferred})
			}
		case *ast.SelectorExpr:
			sel, ok := c.pass.TypesInfo.Selections[x]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			v, ok := sel.Obj().(*types.Var)
			if !ok {
				return true
			}
			info, ok := c.guarded[v]
			if !ok {
				return true
			}
			mode := modeR
			if isWrite(x, stack) {
				mode = modeW
			}
			evs = append(evs, event{
				kind: evAccess,
				key:  lockKey{base: types.ExprString(x.X), guard: info.guard},
				mode: mode,
				sel:  x,
				info: info,
			})
		}
		return true
	})
	return evs
}

// lockEvent matches base.<guard>.Lock/RLock/Unlock/RUnlock where <guard>
// is a mutex field named by some guards declaration.
func (c *checker) lockEvent(call *ast.CallExpr) (event, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return event{}, false
	}
	var kind, mode int
	switch sel.Sel.Name {
	case "Lock":
		kind, mode = evLock, modeW
	case "RLock":
		kind, mode = evLock, modeR
	case "Unlock", "RUnlock":
		kind = evUnlock
	default:
		return event{}, false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return event{}, false
	}
	fs, ok := c.pass.TypesInfo.Selections[inner]
	if !ok || fs.Kind() != types.FieldVal {
		return event{}, false
	}
	gv, ok := fs.Obj().(*types.Var)
	if !ok || c.guards[gv] == "" {
		return event{}, false
	}
	return event{kind: kind, mode: mode, key: lockKey{base: types.ExprString(inner.X), guard: gv}, call: call}, true
}

// staticCallee resolves a direct call to a same-package function or
// method declaration.
func (c *checker) staticCallee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = c.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		// Only ordinary method calls: a method expression T.helper(x)
		// shifts the receiver into the argument list and would make
		// mapHeld rename arguments off by one.
		if s, ok := c.pass.TypesInfo.Selections[fun]; ok && s.Kind() == types.MethodVal {
			obj = s.Obj()
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok || c.decls[fn] == nil {
		return nil
	}
	return fn
}

// isWrite reports whether the selector is a store target: assigned
// (directly or through index/star chains), inc/dec'd, or
// address-taken — taking the address may publish a mutable view, so it
// conservatively demands the write lock.
func isWrite(sel *ast.SelectorExpr, stack []ast.Node) bool {
	var child ast.Node = sel
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr, *ast.IndexExpr, *ast.StarExpr:
			child = stack[i]
			continue
		case *ast.UnaryExpr:
			return p.Op == token.AND
		case *ast.IncDecStmt:
			return true
		case *ast.AssignStmt:
			for _, lhs := range p.Lhs {
				if lhs == child {
					return true
				}
			}
			return false
		default:
			return false
		}
	}
	return false
}

func renderLockSet(held map[lockKey]int) string {
	keys := make([]string, 0, len(held))
	for k, m := range held {
		keys = append(keys, fmt.Sprintf("%s/%s/%d", k.base, k.guard.Name(), m))
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return strings.Join(keys, "|")
}

func copyLockSet(m map[lockKey]int) map[lockKey]int {
	out := make(map[lockKey]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
