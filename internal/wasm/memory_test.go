package wasm_test

import (
	"errors"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasmbuild"
)

// backings instantiates a module on each linear-memory backing: the Go heap,
// and the reservation of InstantiateMapped (the heap too in race builds and
// off Linux and macOS, which memory_mmap_test.go and memory_nommap_test.go
// pin down).
var backings = []struct {
	name        string
	instantiate func(*wasm.Module, wasm.Imports, *wasm.Config) (*wasm.Instance, error)
}{
	{"heap", wasm.Instantiate},
	{"mapped", wasm.InstantiateMapped},
}

// growModule declares 1..4 pages and exports grow, load and store.
func growModule(t *testing.T) *wasm.Module {
	t.Helper()
	b := wasmbuild.New()
	b.Memory(1, 4, "memory")
	grow := b.NewFunc("grow", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	grow.LocalGet(0).MemoryGrow()
	load := b.NewFunc("load", []wasm.ValType{wasm.I32}, []wasm.ValType{wasm.I32})
	load.LocalGet(0).I32Load8U(0)
	store := b.NewFunc("store", []wasm.ValType{wasm.I32, wasm.I32}, nil)
	store.LocalGet(0).LocalGet(1).I32Store8(0)
	m, err := wasm.Decode(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMemoryContractOnBothBackings: whichever backing holds linear memory,
// the committed end traps after every grow, new pages read zero, contents
// survive a grow, a grow past the maximum returns -1 and changes nothing,
// and the resize hook sees the same deltas.
func TestMemoryContractOnBothBackings(t *testing.T) {
	for _, bk := range backings {
		t.Run(bk.name, func(t *testing.T) {
			var total int64
			inst, err := bk.instantiate(growModule(t), nil, &wasm.Config{MemoryResizeHook: func(d int64) { total += d }})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Close()
			mem := inst.Memory()
			if total != wasm.PageSize {
				t.Fatalf("initial allocation = %d", total)
			}
			call0(t, inst, "store", 0, 0xA5)
			call0(t, inst, "store", wasm.PageSize-1, 0x5A)
			for pages := uint64(1); pages < 4; pages++ {
				end := pages * wasm.PageSize
				if _, err := inst.Call("load", end); !errors.Is(err, wasm.TrapOutOfBounds) {
					t.Fatalf("%d pages: load at the end: err = %v, want TrapOutOfBounds", pages, err)
				}
				if _, err := mem.View(uint32(end), 1); !errors.Is(err, wasm.TrapOutOfBounds) {
					t.Fatalf("%d pages: view at the end: err = %v, want TrapOutOfBounds", pages, err)
				}
				if got := call1(t, inst, "grow", 1); got != pages {
					t.Fatalf("grow = %d, want previous size %d", got, pages)
				}
				if want := int64(pages+1) * wasm.PageSize; total != want || int64(mem.Size()) != want {
					t.Fatalf("after grow: hook total %d, size %d, want %d", total, mem.Size(), want)
				}
				fresh, err := mem.View(uint32(end), wasm.PageSize)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range fresh {
					if v != 0 {
						t.Fatalf("new page byte %d = %#x, want 0", i, v)
					}
				}
				if a, b := call1(t, inst, "load", 0), call1(t, inst, "load", wasm.PageSize-1); a != 0xA5 || b != 0x5A {
					t.Fatalf("contents after grow = %#x, %#x", a, b)
				}
				call0(t, inst, "store", end, pages)
			}
			size := mem.Size()
			if got := call1(t, inst, "grow", 1); int32(got) != -1 {
				t.Fatalf("grow past the maximum = %d, want -1", int32(got))
			}
			if mem.Size() != size || total != int64(size) || call1(t, inst, "load", 0) != 0xA5 {
				t.Fatalf("failed grow changed the memory: size %d→%d, hook total %d", size, mem.Size(), total)
			}
		})
	}
}

// call0 calls an export that returns nothing.
func call0(t *testing.T, inst *wasm.Instance, name string, args ...uint64) {
	t.Helper()
	if _, err := inst.Call(name, args...); err != nil {
		t.Fatalf("call %s: %v", name, err)
	}
}

// TestClosedInstanceTraps: after Close, an instance of either backing
// neither faults nor leaks — the guest's accesses trap out of bounds on a
// released mapping, a grow fails, a second Close is harmless, and no
// reservation is left.
func TestClosedInstanceTraps(t *testing.T) {
	before := wasm.LiveMappings()
	inst, err := wasm.InstantiateMapped(growModule(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	mapped := inst.Memory().Mapped()
	inst.Close()
	inst.Close()
	if got := wasm.LiveMappings(); got != before {
		t.Fatalf("live mappings %d after Close, want %d", got, before)
	}
	if !mapped {
		return // the heap backing: Close leaves the memory to the GC
	}
	if _, err := inst.Call("load", 0); !errors.Is(err, wasm.TrapOutOfBounds) {
		t.Fatalf("load after Close: err = %v, want TrapOutOfBounds", err)
	}
	if got := call1(t, inst, "grow", 1); int32(got) != -1 {
		t.Fatalf("grow after Close = %d, want -1", int32(got))
	}
}

// TestFailedInstantiateReleasesMapping: a data segment out of range fails
// InstantiateMapped after the memory was reserved; the reservation goes too.
func TestFailedInstantiateReleasesMapping(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 1, "memory")
	b.Data(wasm.PageSize-1, []byte{1, 2})
	m, err := wasm.Decode(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	before := wasm.LiveMappings()
	if _, err := wasm.InstantiateMapped(m, nil, nil); !errors.Is(err, wasm.ErrDataOutOfRange) {
		t.Fatalf("err = %v, want ErrDataOutOfRange", err)
	}
	if got := wasm.LiveMappings(); got != before {
		t.Fatalf("live mappings %d after a failed instantiate, want %d", got, before)
	}
}
