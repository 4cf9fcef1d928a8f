// Package refbalance proves the data plane's reference-counting
// invariant: every pagebuf page reference a function acquires — from
// Retain, Slice, Ring.Clone/Pop, a pool Copy/Gift producer, or ReadRefs —
// must, on every control-flow path out of that function, either be
// released (Ref.Release, pagebuf.ReleaseAll, a per-element range release)
// or handed to a consumer that owns the release from there (written into a
// buffer, sent on a channel, returned to the caller, or given to a spawned
// goroutine). A reference that misses its release on one error path pins
// its page forever; the striped page pool never recovers it, and only an
// end-of-test conservation sweep — long after the leaking path ran —
// notices. The shared-egress fan-out multiplies the exposure: one tee
// group clones a reference per target, so a single leaking path now leaks
// N pages per transfer. This analyzer turns the pairing into a
// compile-time gate.
//
// Acquire sites are found by result type, not callee name: any assignment
// whose right-hand call returns a Ref or []Ref counts, so new producers
// are in scope the day they are written. The pagebuf package itself is
// exempt — the refcount internals manipulate counts field-by-field under
// their own discipline.
//
// The two-value form `refs, err := acquire()` may return the paired error
// without releasing refs while refs is still untouched — on failure the
// producer returns no references. Once any later statement uses refs, the
// exemption ends: from that point every return must release or hand off.
//
// Calls that only inspect a reference run (pagebuf.TotalLen, len, cap,
// clear, copy) do not count as handoffs: an error return after measuring
// the run still leaks it.
//
// It additionally flags acquisitions whose references are discarded
// (`ring.Clone(n)` as a statement, or a Ref-typed result assigned to _):
// a discarded reference can never be released, so the page it pins is
// gone the moment the statement runs.
package refbalance

import (
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/obligation"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/summary"
)

// Row is the page-reference row of the obligation table.
var Row = obligation.Row{
	Name:   "refbalance",
	Doc:    "check that every acquired pagebuf page reference reaches Release/ReleaseAll or a handoff on every path",
	Domain: summary.Ref,
	// The refcount implementation adjusts counts field-by-field; its
	// internal Ref handling follows a different (and self-checked)
	// discipline.
	SkipPkg: "pagebuf",
	Handoffs: obligation.Return | obligation.Store | obligation.Send | obligation.Go |
		obligation.Unresolved | obligation.Range,
	ErrPair: obligation.ErrExempts,
	// Callees that look at a reference run without taking ownership of it.
	// A mention inside one of these is not a handoff — the caller still
	// owes the release.
	Inspectors: map[string]bool{
		"TotalLen": true,
		"len":      true,
		"cap":      true,
		"clear":    true,
		"copy":     true,
		"print":    true,
		"println":  true,
	},
	LeakAtReturn: "page refs %q acquired at %s may leak: this return neither releases them nor hands them off",
	LeakAtEnd:    "page refs %q may leak: a path reaches the function's end without Release/ReleaseAll or a handoff",
	Discarded:    "page refs discarded: the references can never be released; keep them and Release/ReleaseAll or hand them off",
}

// Analyzer is the refbalance pass.
var Analyzer = obligation.New(Row)
