package guest_test

import (
	"fmt"
	"os"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
)

// TestMain fails the suite when a test or benchmark leaves a mapped linear
// memory behind: the kernel oracles and the BenchmarkGuest* set instantiate
// the guest the way shims do, outside the Go heap, and only Close releases it.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := wasm.LiveMappings(); n != 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "%d mapped linear memories were never closed\n", n)
		code = 1
	}
	os.Exit(code)
}
