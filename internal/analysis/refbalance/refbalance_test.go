package refbalance_test

import (
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/analyzertest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/refbalance"
)

func TestRefBalance(t *testing.T) {
	analyzertest.Run(t, "testdata", refbalance.Analyzer, "a", "interproc", "split")
}
