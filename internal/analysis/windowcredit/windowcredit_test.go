package windowcredit_test

import (
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/analyzertest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/windowcredit"
)

func TestWindowCredit(t *testing.T) {
	analyzertest.Run(t, "testdata", windowcredit.Analyzer, "a", "split")
}
