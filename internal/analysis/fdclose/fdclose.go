// Package fdclose proves the simulated kernel's descriptor-lifetime
// invariant: every descriptor a function opens and binds to a local —
// both ends of Proc.Pipe/PipeSized, kernel.SocketPair/SocketPairSized and
// kernel.Connect — must, on every control-flow path out of that function,
// be closed with Proc.Close (directly, through a closing closure or
// helper, or in a deferred cleanup), returned to the caller, or stored
// into a longer-lived structure (establishChannel's shape, which is never
// a site). PR 2 hand-discovered this leak class on transfer error paths;
// until now only the dynamic NumFDs conservation tests guarded it.
//
// Merely mentioning a descriptor in a call earns nothing: a callee must
// provably close it. kernel.NewStream(proc, fd) wraps, it does not own.
package fdclose

import (
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/obligation"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/summary"
)

// Row is the descriptor row of the obligation table.
var Row = obligation.Row{
	Name:   "fdclose",
	Doc:    "check that every descriptor a function opens is closed, returned or stored on every path",
	Domain: summary.FD,
	// The harnesses under cmd/, examples/ and bench/ tear their kernels down
	// with Proc.CloseAll or by exiting, which no per-descriptor proof models.
	SkipPkg:      "main",
	Handoffs:     obligation.Return | obligation.Store,
	ErrPair:      obligation.ErrPrunes,
	LeakAtReturn: "descriptor %q opened at %s may leak: this return neither closes it nor hands it to the caller",
	LeakAtEnd:    "descriptor %q may leak: a path reaches the function's end without closing it or handing it off",
	Discarded:    "descriptor discarded: it can never be closed; keep it and Close it",
}

// Analyzer is the fdclose pass.
var Analyzer = obligation.New(Row)
