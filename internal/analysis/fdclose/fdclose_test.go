package fdclose_test

import (
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/analyzertest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/fdclose"
)

func TestFDClose(t *testing.T) {
	analyzertest.Run(t, "testdata", fdclose.Analyzer, "a", "split")
}
