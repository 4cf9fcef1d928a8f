package lockguard_test

import (
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/analyzertest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/lockguard"
)

func TestLockGuard(t *testing.T) {
	analyzertest.Run(t, "testdata", lockguard.Analyzer, "a")
}

// TestLockOrder runs the nesting rule over the VM-lock fixture: two locks
// of one guard field held at once, directly or through a helper.
func TestLockOrder(t *testing.T) {
	analyzertest.Run(t, "testdata/lockorder", lockguard.Analyzer, "a")
}
