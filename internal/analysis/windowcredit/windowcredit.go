// Package windowcredit proves the send window's credit invariant: every
// sendWindow.reserve that returned nil has charged the window, and must,
// on every control-flow path out of the reserving function, be followed
// by a push on the same window — the queued run is what the reader's
// consumption credits back. A reservation that returns early leaves the
// window charged for bytes nobody will ever consume, and the next writer
// whose segment no longer fits parks in reserve forever.
package windowcredit

import (
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/obligation"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/summary"
)

// Row is the send-window row of the obligation table. Like the gauge it
// is a bracket, keyed on the window's receiver expression; reserve's own
// error prunes the failed branch.
var Row = obligation.Row{
	Name:       "windowcredit",
	Doc:        "check that every send-window reservation is followed by a push on every path",
	Domain:     summary.Window,
	ErrPair:    obligation.ErrPrunes,
	Unbalanced: "%s.reserve(%s) is not followed by a push on every path: the window stays charged and a later writer parks forever",
}

// Analyzer is the windowcredit pass.
var Analyzer = obligation.New(Row)
