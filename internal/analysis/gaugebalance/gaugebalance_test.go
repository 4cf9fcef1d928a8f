package gaugebalance_test

import (
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/analyzertest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/gaugebalance"
)

func TestGaugeBalance(t *testing.T) {
	analyzertest.Run(t, "testdata", gaugebalance.Analyzer, "a", "interproc", "split")
}
