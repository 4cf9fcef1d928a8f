package guest_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/abi"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasi"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
)

// The guest allocator's layout, as the reference model below restates it:
// the heap starts at 1024, every payload is 8-aligned and preceded by an
// 8-byte header, and the allocator's state is the module's first two
// globals, heap and top.
const (
	modelHeapBase = 1024
	modelHeader   = 8
	fuzzMaxPages  = 8 // 512 KiB: a grow past the declared maximum is cheap to reach
)

// allocatorInstance instantiates the guest with its declared memory maximum
// lowered to maxPages and the allocator's heap and top globals exported, so
// a test can read the state a trapped call must leave alone.
func allocatorInstance(tb testing.TB, maxPages uint32) *wasm.Instance {
	tb.Helper()
	m, err := wasm.Decode(guest.Module())
	if err != nil {
		tb.Fatal(err)
	}
	m.Memory.Max, m.Memory.HasMax = maxPages, true
	m.Exports = append(m.Exports,
		wasm.Export{Name: "heap", Kind: wasm.ExternGlobal, Index: 0},
		wasm.Export{Name: "top", Kind: wasm.ExternGlobal, Index: 1})
	acct := &metrics.Account{}
	proc := kernel.New("alloc-test").NewProc("fn", acct)
	tb.Cleanup(proc.CloseAll)
	imports := wasm.Imports{}
	wasi.NewHost(proc, acct).AddImports(imports)
	imports.Add(abi.ImportModule, abi.ImportSendToHost, abi.SendToHostImport(nil))
	inst, err := wasm.Instantiate(m, imports, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// allocModel is the Go reference of the guest allocator: the block chain
// oldest first, and the bump pointer.
type allocModel struct {
	heap   uint32
	pages  uint32 // memory size in pages; memory never shrinks
	max    uint32
	blocks []modelBlock
}

type modelBlock struct {
	ptr, n uint32
	tag    byte // written at the payload's first and last byte
	free   bool
}

func newAllocModel(pages, maxPages uint32) *allocModel {
	return &allocModel{heap: modelHeapBase, pages: pages, max: maxPages}
}

func (m *allocModel) top() uint32 {
	if len(m.blocks) == 0 {
		return 0
	}
	return m.blocks[len(m.blocks)-1].ptr
}

// alloc returns where allocate_memory(n) lands, or false when it must trap:
// the next header would not fit below 4 GiB, or the memory would have to
// grow past its maximum.
func (m *allocModel) alloc(n uint32) (uint32, bool) {
	end := uint64(m.heap) + (uint64(n)+7)&^7
	need := (end + 65535) >> 16
	if end >= 1<<32-modelHeader || need > uint64(m.max) {
		return 0, false
	}
	ptr := m.heap
	m.blocks = append(m.blocks, modelBlock{ptr: ptr, n: n, tag: byte(len(m.blocks)) | 1})
	m.heap = uint32(end) + modelHeader
	m.pages = max(m.pages, uint32(need))
	return ptr, true
}

// free reports whether deallocate_memory(addr) frees a live block; when it
// does, the heap rewinds over every free block at the top.
func (m *allocModel) free(addr uint32) bool {
	i := slices.IndexFunc(m.blocks, func(b modelBlock) bool { return b.ptr == addr })
	if i < 0 || m.blocks[i].free {
		return false
	}
	m.blocks[i].free = true
	for len(m.blocks) > 0 && m.blocks[len(m.blocks)-1].free {
		m.heap = m.blocks[len(m.blocks)-1].ptr
		m.blocks = m.blocks[:len(m.blocks)-1]
	}
	return true
}

func (m *allocModel) live() []modelBlock {
	var out []modelBlock
	for _, b := range m.blocks {
		if !b.free {
			out = append(out, b)
		}
	}
	return out
}

// allocRun drives one instance in lockstep with the model.
type allocRun struct {
	tb    testing.TB
	inst  *wasm.Instance
	model *allocModel
	freed []uint32 // addresses released so far, for double frees
}

func newAllocRun(tb testing.TB) *allocRun {
	inst := allocatorInstance(tb, fuzzMaxPages)
	return &allocRun{tb: tb, inst: inst, model: newAllocModel(uint32(inst.Memory().Pages()), fuzzMaxPages)}
}

func (r *allocRun) global(name string) uint32 {
	v, err := r.inst.GlobalValue(name)
	if err != nil {
		r.tb.Fatal(err)
	}
	return uint32(v)
}

func (r *allocRun) alloc(n uint32) {
	r.tb.Helper()
	want, ok := r.model.alloc(n)
	res, err := r.inst.Call(abi.ExportAllocate, uint64(n))
	switch {
	case ok && err != nil:
		r.tb.Fatalf("allocate_memory(%d) trapped, want %d: %v", n, want, err)
	case !ok && err == nil:
		r.tb.Fatalf("allocate_memory(%d) = %d, want a trap", n, res[0])
	case ok && uint32(res[0]) != want:
		r.tb.Fatalf("allocate_memory(%d) = %d, want %d", n, res[0], want)
	}
	if ok && n > 0 {
		b := r.model.blocks[len(r.model.blocks)-1]
		mem := r.view(b.ptr, n)
		mem[0], mem[n-1] = b.tag, b.tag
	}
	r.check(fmt.Sprintf("allocate_memory(%d)", n))
}

func (r *allocRun) free(addr uint32) {
	r.tb.Helper()
	ok := r.model.free(addr)
	_, err := r.inst.Call(abi.ExportDeallocate, uint64(addr))
	switch {
	case ok && err != nil:
		r.tb.Fatalf("deallocate_memory(%d) of a live block trapped: %v", addr, err)
	case !ok && err == nil:
		r.tb.Fatalf("deallocate_memory(%d) of no live block did not trap", addr)
	}
	if ok {
		r.freed = append(r.freed, addr)
	}
	r.check(fmt.Sprintf("deallocate_memory(%d)", addr))
}

func (r *allocRun) view(ptr, n uint32) []byte {
	b, err := r.inst.Memory().View(ptr, n)
	if err != nil {
		r.tb.Fatal(err)
	}
	return b
}

// check holds the instance to the model after op: heap, top and the memory
// size agree (so a trapped call changed none of them), live blocks are
// 8-aligned and never overlap, headers included, and each still holds the
// tag written at its allocation.
func (r *allocRun) check(op string) {
	r.tb.Helper()
	m := r.model
	if heap, top := r.global("heap"), r.global("top"); heap != m.heap || top != m.top() {
		r.tb.Fatalf("after %s: heap, top = %d, %d; want %d, %d", op, heap, top, m.heap, m.top())
	}
	if pages := uint32(r.inst.Memory().Pages()); pages != m.pages {
		r.tb.Fatalf("after %s: memory holds %d pages, want %d", op, pages, m.pages)
	}
	live := m.live()
	for i, b := range live {
		if b.ptr%8 != 0 {
			r.tb.Fatalf("after %s: block at %d is not 8-aligned", op, b.ptr)
		}
		if i > 0 && b.ptr-modelHeader < live[i-1].ptr+live[i-1].n {
			r.tb.Fatalf("after %s: block [%d,+%d) overlaps [%d,+%d)", op, b.ptr, b.n, live[i-1].ptr, live[i-1].n)
		}
		if b.n > 0 {
			if mem := r.view(b.ptr, b.n); mem[0] != b.tag || mem[b.n-1] != b.tag {
				r.tb.Fatalf("after %s: block [%d,+%d) lost its contents", op, b.ptr, b.n)
			}
		}
	}
}

// drain frees every live block in the order pick chooses and holds the heap
// to its base once the last one is gone.
func (r *allocRun) drain(pick func(n int) int) {
	r.tb.Helper()
	for live := r.model.live(); len(live) > 0; live = r.model.live() {
		r.free(live[pick(len(live))].ptr)
	}
	if heap, top := r.global("heap"), r.global("top"); heap != modelHeapBase || top != 0 {
		r.tb.Fatalf("fully released heap: heap, top = %d, %d; want %d, 0", heap, top, modelHeapBase)
	}
}

// FuzzGuestAllocator runs random allocate/deallocate sequences against the
// Go reference model. The input is a program of one-byte opcodes, each
// followed by its operand bytes:
//
//	0 lo hi  allocate lo|hi<<8 bytes
//	1 lo hi  allocate (lo|hi<<8)<<4 bytes, up to 1 MiB: past the maximum
//	2 lo hi  allocate 2^32-1-(lo|hi<<8) bytes: the end passes 4 GiB
//	3 k      free the k-th live block, in any order
//	4 k      free an address freed before: a double free
//	5 k d    free a live block's address + 1 + d%7+8*(d>>3): an address
//	         inside a block, or past it
//	6 d      free heap + 8*d: at or above the heap
//
// then frees what is left, in an order the input's remaining bytes choose.
func FuzzGuestAllocator(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		r := newAllocRun(t)
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		u16 := func() uint32 { return uint32(next()) | uint32(next())<<8 }
		for steps := 0; len(prog) > 0 && steps < 256; steps++ {
			switch op := next() % 7; op {
			case 0:
				r.alloc(u16())
			case 1:
				r.alloc(u16() << 4)
			case 2:
				r.alloc(^uint32(0) - u16())
			case 3:
				if live := r.model.live(); len(live) > 0 {
					r.free(live[int(next())%len(live)].ptr)
				}
			case 4:
				if len(r.freed) > 0 {
					r.free(r.freed[int(next())%len(r.freed)])
				}
			case 5:
				if live := r.model.live(); len(live) > 0 {
					b, d := live[int(next())%len(live)], uint32(next())
					r.free(b.ptr + 1 + d%7 + 8*(d>>3))
				}
			case 6:
				r.free(r.model.heap + 8*uint32(next()))
			}
		}
		r.drain(func(n int) int { return int(next()) % n })
	})
}
