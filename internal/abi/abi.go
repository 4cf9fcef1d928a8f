// Package abi defines the Roadrunner guest ABI of Table 1 and the host-side
// access discipline of §3.1: guests expose memory-management and
// data-management functions; the shim reaches linear memory only through
// (pointer, length) pairs that were explicitly registered — by the guest
// announcing an output region (locate_memory_region / send_to_host) or by
// the shim allocating a target region (allocate_memory) — with bounds checks
// before every read or write.
//
// WebAssembly MVP functions return at most one value, so the paper's
// `(int,int) locate_memory_region` is encoded as a packed i64:
// pointer in the high 32 bits, length in the low 32 bits.
package abi

import (
	"errors"
	"fmt"
	"slices"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
)

// Export names every Roadrunner-compatible guest module provides (Table 1).
const (
	ExportMemory     = "memory"
	ExportAllocate   = "allocate_memory"
	ExportDeallocate = "deallocate_memory"
	ExportLocate     = "locate_memory_region"
	ExportReadWasm   = "read_memory_wasm"
)

// Host-function import the guest may call to push data proactively
// (send_to_host in Table 1).
const (
	ImportModule     = "roadrunner"
	ImportSendToHost = "send_to_host"
)

// ABI errors.
var (
	ErrNotRegistered = errors.New("abi: access to unregistered memory region")
	ErrMissingExport = errors.New("abi: guest does not implement the Roadrunner ABI")
)

// Pack encodes a (pointer, length) pair as the ABI's packed i64.
func Pack(ptr, n uint32) uint64 { return uint64(ptr)<<32 | uint64(n) }

// Unpack decodes a packed i64 into (pointer, length).
func Unpack(v uint64) (ptr, n uint32) { return uint32(v >> 32), uint32(v) }

type region struct{ ptr, n uint32 }

func (r region) contains(ptr, n uint32) bool {
	return ptr >= r.ptr && uint64(ptr)+uint64(n) <= uint64(r.ptr)+uint64(r.n)
}

// View is the shim's mediated window onto one guest instance's linear
// memory. It enforces the registration discipline: reads must fall inside a
// guest-announced output region, writes inside a shim-allocated region.
type View struct {
	inst  *wasm.Instance
	acct  *metrics.Account
	alloc *wasm.Func
	free  *wasm.Func
	loc   *wasm.Func

	readable []region
	writable []region
}

// NewView resolves the ABI exports of a guest instance. The account (may be
// nil) is charged for boundary copies performed through the view.
func NewView(inst *wasm.Instance, acct *metrics.Account) (*View, error) {
	if inst.Memory() == nil {
		return nil, fmt.Errorf("no exported linear memory: %w", ErrMissingExport)
	}
	v := &View{inst: inst, acct: acct}
	var err error
	if v.alloc, err = inst.Func(ExportAllocate); err != nil {
		return nil, fmt.Errorf("%s: %w", ExportAllocate, ErrMissingExport)
	}
	if v.free, err = inst.Func(ExportDeallocate); err != nil {
		return nil, fmt.Errorf("%s: %w", ExportDeallocate, ErrMissingExport)
	}
	if v.loc, err = inst.Func(ExportLocate); err != nil {
		return nil, fmt.Errorf("%s: %w", ExportLocate, ErrMissingExport)
	}
	return v, nil
}

// Instance returns the underlying guest instance.
func (v *View) Instance() *wasm.Instance { return v.inst }

// Allocate reserves n bytes inside the guest via allocate_memory and
// registers the region as writable by the shim.
func (v *View) Allocate(n uint32) (uint32, error) {
	res, err := v.alloc.Call(uint64(n))
	if err != nil {
		return 0, fmt.Errorf("allocate_memory(%d): %w", n, err)
	}
	ptr := uint32(res[0])
	v.writable = append(v.writable, region{ptr: ptr, n: n})
	return ptr, nil
}

// Deallocate releases the guest allocation at ptr (deallocate_memory) and
// revokes the registrations inside it: those starting within the furthest
// extent registered at ptr. The guest frees exactly that block, so
// registrations of other live blocks stay. An address that is not a live
// block traps in the guest, leaves its heap as it was, and fails with
// ErrNotRegistered.
func (v *View) Deallocate(ptr uint32) error {
	if _, err := v.free.Call(uint64(ptr)); err != nil {
		return fmt.Errorf("deallocate_memory(%d): %w: %w", ptr, ErrNotRegistered, err)
	}
	end := uint64(ptr) + 1
	for _, rs := range [2][]region{v.writable, v.readable} {
		for _, r := range rs {
			if r.ptr == ptr {
				end = max(end, uint64(r.ptr)+uint64(r.n))
			}
		}
	}
	v.writable = dropRegionsIn(v.writable, ptr, end)
	v.readable = dropRegionsIn(v.readable, ptr, end)
	return nil
}

// dropRegionsIn removes the regions starting in [ptr, end).
func dropRegionsIn(rs []region, ptr uint32, end uint64) []region {
	return slices.DeleteFunc(rs, func(r region) bool { return r.ptr >= ptr && uint64(r.ptr) < end })
}

// Locate asks the guest for its current output region
// (locate_memory_region) and registers it as readable.
func (v *View) Locate() (ptr, n uint32, err error) {
	res, err := v.loc.Call()
	if err != nil {
		return 0, 0, fmt.Errorf("locate_memory_region: %w", err)
	}
	ptr, n = Unpack(res[0])
	v.RegisterOutput(ptr, n)
	return ptr, n, nil
}

// RegisterOutput marks [ptr, ptr+n) as a guest-announced readable region —
// the effect of the guest calling send_to_host(ptr, n). Re-announcing the
// current region (the steady state of a function invoked in a loop) is
// deduplicated so the registration list stays bounded.
func (v *View) RegisterOutput(ptr, n uint32) {
	r := region{ptr: ptr, n: n}
	if k := len(v.readable); k > 0 && v.readable[k-1] == r {
		return
	}
	v.readable = append(v.readable, r)
}

// ReadView returns a zero-copy window onto a registered readable region
// (read_memory_host in Table 1). The slice aliases guest memory and is valid
// only until the guest runs again; callers that need stability must copy.
func (v *View) ReadView(ptr, n uint32) ([]byte, error) {
	if !containsAny(v.readable, ptr, n) {
		return nil, fmt.Errorf("read [%d,+%d): %w", ptr, n, ErrNotRegistered)
	}
	return v.inst.Memory().View(ptr, n)
}

// Write copies data into a shim-allocated writable region
// (write_memory_host in Table 1). The copy is the unavoidable one of the
// paper's "near-zero copy": data must cross into the Wasm VM's linear memory
// (§7 "Near-zero Copy Data Transfer"). It is charged as a user-space copy.
func (v *View) Write(data []byte, ptr uint32) error {
	if !containsAny(v.writable, ptr, uint32(len(data))) {
		return fmt.Errorf("write [%d,+%d): %w", ptr, len(data), ErrNotRegistered)
	}
	if err := v.inst.Memory().WriteAt(data, ptr); err != nil {
		return err
	}
	v.acct.Copy(metrics.User, len(data))
	return nil
}

// WritableView returns a zero-copy writable window onto a shim-allocated
// region, letting the kernel deposit received bytes straight into linear
// memory (the receive half of the data hose) without an intermediate host
// buffer. The caller is responsible for charging the copy it performs into
// the returned slice.
func (v *View) WritableView(ptr, n uint32) ([]byte, error) {
	if !containsAny(v.writable, ptr, n) {
		return nil, fmt.Errorf("writable view [%d,+%d): %w", ptr, n, ErrNotRegistered)
	}
	return v.inst.Memory().View(ptr, n)
}

func containsAny(rs []region, ptr, n uint32) bool {
	for _, r := range rs {
		if r.contains(ptr, n) {
			return true
		}
	}
	return false
}

// CallPacked invokes a guest export that returns a packed (ptr, len) i64 —
// the calling convention of produce/serialize-style functions — and
// registers the result as readable.
func (v *View) CallPacked(name string, args ...uint64) (ptr, n uint32, err error) {
	res, err := v.inst.Call(name, args...)
	if err != nil {
		return 0, 0, err
	}
	if len(res) != 1 {
		return 0, 0, fmt.Errorf("abi: %s returned %d values, want packed i64", name, len(res))
	}
	ptr, n = Unpack(res[0])
	v.RegisterOutput(ptr, n)
	return ptr, n, nil
}

// SendToHostImport builds the host function backing the guest's
// send_to_host import. The sink typically registers the announced region on
// the shim's View; it is invoked with the guest-provided (pointer, length).
// A nil sink discards announcements (backward-compatible default, §7
// "Interoperability").
func SendToHostImport(sink func(ptr, n uint32)) wasm.HostFunc {
	return wasm.HostFunc{
		Type: wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}},
		Fn: func(_ *wasm.HostContext, args []uint64) ([]uint64, error) {
			if sink != nil {
				sink(uint32(args[0]), uint32(args[1]))
			}
			return nil, nil
		},
	}
}
