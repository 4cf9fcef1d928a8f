// Package poolreturn proves the hot path's recycling invariant: every
// object taken from a sync.Pool recycler (`v := pool.Get().(*T)`) must, on
// every control-flow path out of the acquiring function, reach its Put —
// directly, through a clearing put-helper such as putTransferConfig or
// putPipelineState, in a deferred cleanup, or by being handed to a consumer
// that recycles it (returned to the caller, sent on a channel, stored into
// a longer-lived structure, or passed to a spawned goroutine). The
// zero-alloc transfer path leans on these recyclers (cfgPool, statePool,
// refScratch); a Get that misses its Put on one error path silently
// reverts that path to allocating, which no test notices until the
// allocation ceilings trip. This analyzer turns the pairing into a
// compile-time gate.
//
// It additionally flags Get calls whose result is discarded (`pool.Get()`
// as a statement or assigned to _): a discarded pooled object is pure
// churn — it drains the pool and hands the garbage collector the work the
// pool exists to avoid.
package poolreturn

import (
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/obligation"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/summary"
)

// Row is the sync.Pool row of the obligation table. Both the asserted
// form (`v := pool.Get().(*T)`) and the raw form (`v := pool.Get()`) are
// acquires; a two-value type assertion (`v, ok := ...`) tracks the first
// variable.
var Row = obligation.Row{
	Name:         "poolreturn",
	Doc:          "check that every object taken from a sync.Pool is recycled or handed off on every path",
	Domain:       summary.Pool,
	Handoffs:     obligation.Return | obligation.Store | obligation.Send | obligation.Go,
	LeakAtReturn: "pooled %q taken at %s may leak: this return neither recycles it nor hands it off",
	LeakAtEnd:    "pooled %q may leak: a path reaches the function's end without recycling or handing it off",
	Discarded:    "pool.Get result discarded: the object can never be recycled; keep it and Put it, or drop the Get",
}

// Analyzer is the poolreturn pass.
var Analyzer = obligation.New(Row)
