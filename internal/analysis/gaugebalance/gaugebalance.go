// Package gaugebalance proves the invoker plane's in-flight accounting
// invariant: every State.Enter must be balanced by a State.Exit on every
// control-flow path out of the same function — via a defer (covering all
// exits) or explicitly before each return. PR 6 found the motivating bug
// in chainWithCtx: the head produce's Enter bracket outlived the produce
// on the error path, leaving a phantom in-flight invocation that made the
// least-loaded placement policy steer around a healthy replica forever.
package gaugebalance

import (
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/obligation"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/summary"
)

// Row is the in-flight gauge row of the obligation table. The obligation
// is a bracket — State.Enter opens it, State.Exit on the same receiver and
// index closes it — so nothing hands it off: only an Exit (direct,
// deferred, or in a helper whose summary closes the bracket) discharges
// it.
var Row = obligation.Row{
	Name:       "gaugebalance",
	Doc:        "check that every in-flight gauge Enter has an Exit on all paths of the function",
	Domain:     summary.Gauge,
	Unbalanced: "%s.Enter(%s) is not balanced by an Exit on every path: the in-flight gauge leaks and least-loaded placement steers around a phantom invocation",
}

// Analyzer is the gaugebalance pass.
var Analyzer = obligation.New(Row)
