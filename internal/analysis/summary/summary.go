// Package summary computes per-function resource-obligation summaries
// over the whole loaded program, bottom-up in call-graph SCC order. Each
// summary records, for one declared function, the obligations it
// discharges or creates across its own boundary:
//
//   - Consumes: parameter positions the function releases (or definitively
//     hands off) in a resource domain on every path that touches them —
//     "helper releases its argument";
//   - Returns: result positions that carry a freshly acquired obligation
//     back to the caller — "constructor hands ownership";
//   - Exits/Enters: bracket-domain calls (invoker-plane State.Enter/Exit,
//     send-window reserve/push) the function issues on behalf of its
//     caller;
//   - PollsCtx: the function observes context cancellation, so a loop that
//     calls it per chunk is polling;
//   - BestEffortRewind (on the Program): named abort helpers whose
//     discarded Deallocate errors are provably on error paths only.
//
// The analyzers consume these summaries through the summaries analyzer
// (install.go), so a leak split across helpers — the exact shape that hid
// the PR 5/6 ingress leaks — is caught without annotations.
//
// Lattice and fixpoints: summaries for a strongly connected component of
// the call graph are computed together. Must-properties (Consumes,
// Exits) start optimistic — every candidate position assumed
// discharged — and shrink until stable, the standard greatest fixpoint for
// all-paths facts over recursion: a recursive release helper's base case
// (guard-only paths are exempt, see consume.go) and its recursive call
// both hold at the fixpoint. May-properties (Returns, PollsCtx, Enters)
// start empty and grow — a least fixpoint, since they create
// obligations and must not be assumed. The two directions are independent
// lattices, so one loop iterates both to simultaneous stability.
//
// Soundness boundary: only statically resolved calls transfer summary
// facts. A call through a function value, an out-of-program callee, or an
// interface method (which CHA can only over-approximate) earns no
// discharge credit — the conservative direction for every must-property.
package summary

import (
	"go/ast"
	"go/types"
	"maps"
	"slices"

	"golang.org/x/tools/go/cfg"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/callgraph"
)

// Pair describes one bracket-domain call (State.Enter/Exit,
// sendWindow.reserve/push) a function issues on its caller's behalf. Recv
// is the parameter index carrying the bracket's receiver; Arg is the
// parameter index carrying the bracket key, or -1 when the key is the
// literal ArgLit (empty for a bracket named by its receiver alone).
type Pair struct {
	Recv   int
	Arg    int
	ArgLit string
}

// Summary is the obligation summary of one declared function. Parameter
// positions are uniform across functions and methods: index 0 is the
// receiver (unused for plain functions), declared parameter i is index
// i+1.
type Summary struct {
	// Key is the function's callgraph key.
	Key string
	// Consumes[d][i] reports that parameter i's obligation in domain d is
	// discharged on every path that touches it (and on at least one path
	// at all): a call site passing an obligation there counts as a
	// release.
	Consumes map[Domain]map[int]bool
	// Returns[d][k] reports that result k may carry a fresh domain-d
	// obligation to the caller.
	Returns map[Domain]map[int]bool
	// PollsCtx reports that the function observes ctx cancellation
	// (directly or through a statically resolved callee).
	PollsCtx bool
	// Exits[d] are the domain-d brackets closed on all paths on behalf of
	// parameters; Enters[d] are the brackets opened anywhere.
	Exits  map[Domain][]Pair
	Enters map[Domain][]Pair
	// Unexported reports a lower-case function name: the boundary at
	// which Returns propagation applies (an exported constructor is a
	// documented user handoff, an unexported helper is an internal
	// decomposition the analyzers must see through).
	Unexported bool
}

// Program is the whole-program summary table plus the call graph it was
// computed over.
type Program struct {
	Graph     *callgraph.Graph
	Summaries map[string]*Summary

	// units indexes the loaded packages by import path; sites indexes
	// every statically resolved call by callee key, with its ancestor
	// chain — the raw material of the error-path proofs (errpath.go).
	units      map[string]*callgraph.Pkg
	sites      map[string][]*callSite
	nonNilMemo map[string]int8
}

// Summary returns the summary for key, or nil.
func (p *Program) Summary(key string) *Summary {
	if p == nil {
		return nil
	}
	return p.Summaries[key]
}

// summariesOf returns the summaries of call's statically known targets,
// or nil when the call is dynamic, has no in-program target, or any
// target lacks a summary — the cases that earn no credit.
func (p *Program) summariesOf(pkg *callgraph.Pkg, call *ast.CallExpr) []*Summary {
	if p == nil || p.Graph == nil {
		return nil
	}
	targets, dynamic := p.Graph.ResolveCall(pkg, call)
	if dynamic || len(targets) == 0 {
		return nil
	}
	out := make([]*Summary, 0, len(targets))
	for _, t := range targets {
		s := p.Summaries[t.Key]
		if s == nil {
			return nil
		}
		out = append(out, s)
	}
	return out
}

// ConsumesAt reports whether every statically known target of call
// discharges domain d at parameter position pos. Dynamic calls and calls
// with no in-program target earn no credit.
func (p *Program) ConsumesAt(pkg *callgraph.Pkg, call *ast.CallExpr, d Domain, pos int) bool {
	sums := p.summariesOf(pkg, call)
	return len(sums) > 0 && !slices.ContainsFunc(sums, func(s *Summary) bool { return !s.Consumes[d][pos] })
}

// consumesObj reports whether obj is call's receiver or an argument at a
// position every statically known target consumes in domain d.
func (p *Program) consumesObj(pkg *callgraph.Pkg, call *ast.CallExpr, obj types.Object, d Domain) bool {
	for _, pos := range objPositions(pkg.Info, call, obj) {
		if p.ConsumesAt(pkg, call, d, pos) {
			return true
		}
	}
	return false
}

// Build computes the program summary table over the loaded packages.
func Build(pkgs []*callgraph.Pkg) *Program {
	g := callgraph.Build(pkgs)
	prog := &Program{
		Graph:      g,
		Summaries:  make(map[string]*Summary),
		units:      make(map[string]*callgraph.Pkg),
		sites:      make(map[string][]*callSite),
		nonNilMemo: make(map[string]int8),
	}
	b := &builder{prog: prog, cfgs: make(map[*callgraph.Node]*cfg.CFG)}

	for _, scc := range g.SCCTopo() {
		// Optimistic initialization for the component's must-properties:
		// every candidate (param, domain) pair starts assumed-consumed, so
		// recursive calls inside the SCC can credit each other; the loop
		// below shrinks until stable.
		for _, n := range scc {
			prog.Summaries[n.Key] = b.optimistic(n)
		}
		for iter := 0; ; iter++ {
			changed := false
			for _, n := range scc {
				next := b.compute(n)
				if !equal(prog.Summaries[n.Key], next) {
					prog.Summaries[n.Key] = next
					changed = true
				}
			}
			if !changed || iter > 4*len(scc)+8 {
				break
			}
		}
	}

	prog.collectSites(pkgs)
	return prog
}

// optimistic seeds a summary with every plausible must-fact so the SCC
// fixpoint can shrink from above.
func (b *builder) optimistic(n *callgraph.Node) *Summary {
	s := newSummary(n)
	if n.Decl == nil || n.Decl.Body == nil {
		return s
	}
	params := paramObjs(n)
	for _, m := range Table {
		for i, p := range params {
			if p != nil && m.Acquire != nil {
				s.Consumes[m.Domain][i] = true
			}
		}
	}
	return s
}

// compute evaluates one function's summary against the current table.
func (b *builder) compute(n *callgraph.Node) *Summary {
	s := newSummary(n)
	if n.Decl == nil || n.Decl.Body == nil {
		return s
	}
	params := paramObjs(n)
	for _, m := range Table {
		if m.Enter != nil {
			s.Exits[m.Domain], s.Enters[m.Domain] = b.brackets(n, params, m)
			continue
		}
		for i, p := range params {
			if p != nil && b.consumes(n, p, m) {
				s.Consumes[m.Domain][i] = true
			}
		}
	}
	b.returns(n, s)
	s.PollsCtx = b.pollsCtx(n)
	return s
}

func newSummary(n *callgraph.Node) *Summary {
	s := &Summary{
		Key:        n.Key,
		Consumes:   make(map[Domain]map[int]bool),
		Returns:    make(map[Domain]map[int]bool),
		Exits:      make(map[Domain][]Pair),
		Enters:     make(map[Domain][]Pair),
		Unexported: n.Decl != nil && !n.Decl.Name.IsExported(),
	}
	for _, m := range Table {
		s.Consumes[m.Domain] = make(map[int]bool)
		s.Returns[m.Domain] = make(map[int]bool)
	}
	return s
}

// paramObjs returns the function's parameter objects in summary position
// order: index 0 the receiver (nil for plain functions or an unnamed
// receiver), then every declared parameter (nil for _ or unnamed).
func paramObjs(n *callgraph.Node) []types.Object {
	out := []types.Object{nil}
	fd := n.Decl
	info := n.Pkg.Info
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		out[0] = info.Defs[fd.Recv.List[0].Names[0]]
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				out = append(out, nil)
				continue
			}
			for _, name := range field.Names {
				if name.Name == "_" {
					out = append(out, nil)
					continue
				}
				out = append(out, info.Defs[name])
			}
		}
	}
	return out
}

// equal compares two summaries field by field.
func equal(a, b *Summary) bool {
	if a.PollsCtx != b.PollsCtx || a.Unexported != b.Unexported {
		return false
	}
	for _, m := range Table {
		d := m.Domain
		if !maps.Equal(a.Consumes[d], b.Consumes[d]) || !maps.Equal(a.Returns[d], b.Returns[d]) ||
			!slices.Equal(a.Exits[d], b.Exits[d]) || !slices.Equal(a.Enters[d], b.Enters[d]) {
			return false
		}
	}
	return true
}
