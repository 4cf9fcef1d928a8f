//go:build (linux || darwin) && !race

package wasm_test

import (
	"errors"
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

// TestViewAtTheFourGiBEnd: a view that ends exactly at the end of a memory
// grown to the whole 4 GiB wasm32 space is in bounds, and one byte more is
// an out-of-bounds error, not a panic: the end of [ptr, ptr+n) does not fit
// 32 bits there. The grow commits the pages without touching them, so the
// test costs address space, not memory; it skips where the memory lives on
// the Go heap, which would have to allocate the 4 GiB.
func TestViewAtTheFourGiBEnd(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 65536, "memory")
	m, err := wasm.Decode(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wasm.InstantiateMapped(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	mem := inst.Memory()
	if !mem.Mapped() {
		t.Skip("linear memory is on the Go heap")
	}
	if mem.Grow(65535) != 1 {
		t.Fatal("grow to 65536 pages failed")
	}
	const ptr = 1<<32 - 16
	view, err := mem.View(ptr, 16)
	if err != nil || len(view) != 16 || cap(view) != 16 {
		t.Fatalf("View(%d, 16) = len %d cap %d, %v; want the last 16 bytes", uint32(ptr), len(view), cap(view), err)
	}
	if _, err := mem.View(ptr, 17); !errors.Is(err, wasm.TrapOutOfBounds) {
		t.Fatalf("View(%d, 17): err = %v, want TrapOutOfBounds", uint32(ptr), err)
	}
}
