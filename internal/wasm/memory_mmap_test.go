//go:build (linux || darwin) && !race

package wasm_test

import (
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasmbuild"
)

// TestMappedGrowAllocatesNothing: InstantiateMapped reserves linear memory
// outside the Go heap, a grow commits pages in place without allocating a
// Go byte, and Close releases the reservation.
func TestMappedGrowAllocatesNothing(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 65536, "memory")
	m, err := wasm.Decode(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	before := wasm.LiveMappings()
	inst, err := wasm.InstantiateMapped(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mem := inst.Memory()
	if !mem.Mapped() || wasm.LiveMappings() != before+1 {
		t.Fatalf("mapped %v, live mappings %d, want a reservation", mem.Mapped(), wasm.LiveMappings()-before)
	}
	if allocs := testing.AllocsPerRun(64, func() {
		if mem.Grow(1) < 0 {
			t.Fatal("grow failed")
		}
	}); allocs != 0 {
		t.Fatalf("grow allocated %.1f times, want 0", allocs)
	}
	if err := mem.WriteAt([]byte{1}, uint32(mem.Size()-1)); err != nil {
		t.Fatal(err)
	}
	inst.Close()
	if got := wasm.LiveMappings(); got != before {
		t.Fatalf("live mappings %d after Close, want %d", got-before, 0)
	}
}
