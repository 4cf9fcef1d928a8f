package poolreturn_test

import (
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/analyzertest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/poolreturn"
)

func TestPoolReturn(t *testing.T) {
	analyzertest.Run(t, "testdata", poolreturn.Analyzer, "a", "interproc", "split")
}
