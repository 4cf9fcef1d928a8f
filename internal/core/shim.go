// Package core implements Roadrunner itself: the sidecar shim that manages
// Wasm VM lifecycles (§3.2.5), the data-access model of §3.1, and the three
// inter-function data-transfer mechanisms of §4 — user space (same Wasm VM),
// kernel space (co-located sandboxes over IPC) and network (the
// vmsplice/splice virtual data hose of Algorithm 1).
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/abi"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasi"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
)

// Transfer-mode and trust errors.
var (
	ErrDifferentVM      = errors.New("core: user-space transfer requires functions in the same Wasm VM")
	ErrWorkflowMismatch = errors.New("core: functions belong to different workflows/tenants")
	ErrDifferentNode    = errors.New("core: kernel-space transfer requires co-located functions")
	ErrSameNode         = errors.New("core: network transfer connects functions on different nodes")
	ErrNoOutput         = errors.New("core: source function has not produced an output")
)

// Workflow identifies a trusted execution context: only functions of the
// same workflow and tenant may share a Wasm VM (§3.1 "Shared Memory").
type Workflow struct {
	Name   string
	Tenant string
}

// Bundle is the OCI-style runtime-bundle metadata the shim packages each
// Wasm VM with, enabling containerd-compatible deployment (§3.2.2).
type Bundle struct {
	SpecVersion string
	ID          string
	BinaryBytes int
	Annotations map[string]string
}

// ShimConfig configures one sidecar shim.
type ShimConfig struct {
	// Name identifies the shim (and its sandbox process).
	Name string
	// Workflow is the trusted context functions in this shim belong to.
	Workflow Workflow
	// Kernel is the host kernel of the node the shim is placed on.
	Kernel *kernel.Kernel
	// Module is the guest binary loaded into each function.
	Module []byte
	// Now injects a clock (nil = time.Now). The staged pipeline reads the
	// clock from both stage goroutines, so injected clocks must be safe
	// for concurrent use.
	Now func() time.Time
	// DataHoseBytes sizes the shim's virtual-data-hose pipes
	// (0 = 4 MiB, set via the simulated F_SETPIPE_SZ).
	DataHoseBytes int
	// ChannelIdle bounds how long an unused cached channel (persistent
	// data hose, see channels.go) survives before the next acquisition
	// evicts it (0 = DefaultChannelIdle).
	ChannelIdle time.Duration
	// ChannelCap bounds the cached channels this shim originates; the
	// least recently used is evicted beyond it (0 = DefaultChannelCap).
	ChannelCap int
}

// Shim is the Roadrunner sidecar: it owns one sandbox process and one Wasm
// VM, loads function modules into the VM, and mediates every data movement
// in and out of linear memory (§3.2).
//
// A shim's VM runs one guest activation at a time, like a single-threaded
// Wasm runtime: every guest entry and every view over linear memory is
// serialized by the VM lock. Transfers between functions of disjoint shims
// share no VM state and proceed fully in parallel.
type Shim struct {
	name     string
	workflow Workflow
	proc     *kernel.Proc
	acct     *metrics.Account
	wasiHost *wasi.Host
	bundle   Bundle
	now      func() time.Time
	hoseCap  int

	// seq is the shim's position in the global lock order (see lockShims).
	seq uint64
	// mu is the VM lock: it guards functions, coldStart, every guest call
	// and every view over the VM's linear memory (including Function.out).
	mu sync.Mutex

	module []byte
	// decoded is module, decoded and compiled on the first AddFunction; the
	// VM's functions are instances of it and share its code.
	//roadvet:guards mu
	decoded *wasm.Module
	//roadvet:guards mu
	functions []*Function
	//roadvet:guards mu
	coldStart time.Duration

	// Channel-cache registry (see channels.go). chanMu is a leaf lock: it
	// is never held while acquiring any other lock.
	chanMu sync.Mutex
	//roadvet:guards chanMu
	channels map[chanKey]*channel // persistent hoses this shim originates
	//roadvet:guards chanMu
	inbound map[*channel]struct{} // persistent hoses targeting this shim
	//roadvet:guards chanMu
	pairMu map[chanKey]*sync.Mutex
	//roadvet:guards chanMu
	chanHits int64
	//roadvet:guards chanMu
	chanMisses int64
	//roadvet:guards chanMu
	chanEvictions int64
	chanIdle      time.Duration
	chanCap       int
}

// shimSeq issues lock-order positions; creation order is the lock order.
var shimSeq atomic.Uint64

// distinctBySeq deduplicates shims and orders them by ascending creation
// sequence — THE global lock order. Both whole-transfer VM locking
// (lockShims) and multicast pair-lock acquisition derive their ordering
// from this one definition, so the deadlock-freedom invariant cannot drift
// between them.
func distinctBySeq(shims []*Shim) []*Shim {
	distinct := shims[:0:0]
	for _, s := range shims {
		dup := false
		for _, d := range distinct {
			if d == s {
				dup = true
				break
			}
		}
		if !dup {
			distinct = append(distinct, s)
		}
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i].seq < distinct[j].seq })
	return distinct
}

// lockShims acquires the VM locks of every distinct shim in ascending
// creation order — the single global lock order that keeps multi-shim
// phase-locked transfers deadlock-free no matter which pairs overlap. The
// returned slice (deduplicated, sorted) is what unlockShims expects.
func lockShims(shims ...*Shim) []*Shim {
	distinct := distinctBySeq(shims)
	for _, s := range distinct {
		s.mu.Lock()
	}
	return distinct
}

// unlockShims releases locks taken by lockShims (any order is safe).
func unlockShims(locked []*Shim) {
	for _, s := range locked {
		s.mu.Unlock()
	}
}

// NewShim creates the shim's sandbox and prepares the Wasm runtime. The
// measured duration (sandbox creation + runtime configuration) counts toward
// cold start, as in Fig. 2a.
func NewShim(cfg ShimConfig) (*Shim, error) {
	if cfg.Kernel == nil {
		return nil, errors.New("core: shim requires a kernel")
	}
	if len(cfg.Module) == 0 {
		return nil, errors.New("core: shim requires a guest module binary")
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	hose := cfg.DataHoseBytes
	if hose <= 0 {
		hose = 4 << 20
	}
	chanIdle := cfg.ChannelIdle
	if chanIdle <= 0 {
		chanIdle = DefaultChannelIdle
	}
	chanCap := cfg.ChannelCap
	if chanCap <= 0 {
		chanCap = DefaultChannelCap
	}
	sw := metrics.NewStopwatch(now)
	acct := &metrics.Account{}
	proc := cfg.Kernel.NewProc(cfg.Name, acct)
	s := &Shim{
		name:     cfg.Name,
		seq:      shimSeq.Add(1),
		workflow: cfg.Workflow,
		proc:     proc,
		acct:     acct,
		wasiHost: wasi.NewHost(proc, acct),
		now:      now,
		hoseCap:  hose,
		chanIdle: chanIdle,
		chanCap:  chanCap,
		module:   cfg.Module,
		bundle: Bundle{
			SpecVersion: "1.0.2",
			ID:          "roadrunner-" + cfg.Name,
			BinaryBytes: len(cfg.Module),
			Annotations: map[string]string{
				"io.roadrunner.workflow": cfg.Workflow.Name,
				"io.roadrunner.tenant":   cfg.Workflow.Tenant,
			},
		},
	}
	//roadvet:unguarded fresh Shim: not yet published to any other goroutine
	s.coldStart = sw.Lap()
	return s, nil
}

// AddFunction loads the shim's module into the Wasm VM as a new function
// instance (Fig. 4a: one VM may hold several modules of the same workflow).
// Instantiation time is added to the shim's cold start.
func (s *Shim) AddFunction(name string) (*Function, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := metrics.NewStopwatch(s.now)
	if s.decoded == nil {
		m, err := wasm.Decode(s.module)
		if err != nil {
			return nil, fmt.Errorf("decode module for %s: %w", name, err)
		}
		s.decoded = m
	}

	f := &Function{name: name, shim: s}
	imports := wasm.Imports{}
	s.wasiHost.AddImports(imports)
	imports.Add(abi.ImportModule, abi.ImportSendToHost, abi.SendToHostImport(func(ptr, n uint32) {
		if f.view != nil {
			f.view.RegisterOutput(ptr, n)
			f.out = OutputRef{Ptr: ptr, Len: n}
			f.hasOut = true
		}
	}))

	inst, err := wasm.Instantiate(s.decoded, imports, &wasm.Config{
		MemoryResizeHook: func(delta int64) { s.acct.Allocate(delta) },
	})
	if err != nil {
		return nil, fmt.Errorf("instantiate %s: %w", name, err)
	}
	view, err := abi.NewView(inst, s.acct)
	if err != nil {
		return nil, fmt.Errorf("bind ABI for %s: %w", name, err)
	}
	f.inst = inst
	f.view = view
	s.functions = append(s.functions, f)
	d := sw.Lap()
	s.coldStart += d
	s.acct.CPU(metrics.User, d)
	return f, nil
}

// Name returns the shim name.
func (s *Shim) Name() string { return s.name }

// Workflow returns the shim's trusted workflow context.
func (s *Shim) Workflow() Workflow { return s.workflow }

// Kernel returns the node kernel the shim runs on.
func (s *Shim) Kernel() *kernel.Kernel { return s.proc.Kernel() }

// Proc returns the shim's sandbox process.
func (s *Shim) Proc() *kernel.Proc { return s.proc }

// Account returns the shim's resource account (the per-sandbox "cgroup").
func (s *Shim) Account() *metrics.Account { return s.acct }

// WASI returns the shim's WASI host (used to preload files for guests).
func (s *Shim) WASI() *wasi.Host { return s.wasiHost }

// Bundle returns the shim's OCI-style bundle metadata.
func (s *Shim) Bundle() Bundle { return s.bundle }

// ColdStart reports the accumulated sandbox + VM initialization time.
func (s *Shim) ColdStart() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.coldStart
}

// Close tears down the shim's cached channels (both directions) and then
// the sandbox with every descriptor it still holds.
func (s *Shim) Close() {
	s.closeChannels()
	s.proc.CloseAll()
}

// OutputRef is a guest-announced (pointer, length) output region.
type OutputRef struct {
	Ptr uint32
	Len uint32
}

// Function is one Wasm function instance managed by a shim.
type Function struct {
	name string
	shim *Shim
	inst *wasm.Instance
	view *abi.View
	// out is the function's current output region, valid when hasOut is
	// set. A value field rather than a pointer: locate runs on every
	// transfer, and re-boxing the region each time was a per-transfer heap
	// allocation.
	out    OutputRef
	hasOut bool
}

// Name returns the function name.
func (f *Function) Name() string { return f.name }

// Shim returns the managing shim.
func (f *Function) Shim() *Shim { return f.shim }

// View exposes the shim's mediated memory view (for advanced embedders).
// The view is not synchronized: callers that use it directly must not race
// with transfers or guest calls on the same VM (prefer Call/Deallocate,
// which take the VM lock).
func (f *Function) View() *abi.View { return f.view }

// Instance returns the function's Wasm instance.
func (f *Function) Instance() *wasm.Instance { return f.inst }

// Output returns the function's current output region.
func (f *Function) Output() (OutputRef, error) {
	f.shim.mu.Lock()
	defer f.shim.mu.Unlock()
	if !f.hasOut {
		return OutputRef{}, fmt.Errorf("%s: %w", f.name, ErrNoOutput)
	}
	return f.out, nil
}

// call runs a guest export, measuring its duration as user CPU. Callers hold
// the shim's VM lock.
func (f *Function) call(name string, args ...uint64) ([]uint64, error) {
	sw := metrics.NewStopwatch(f.shim.now)
	res, err := f.inst.Call(name, args...)
	f.shim.acct.CPU(metrics.User, sw.Lap())
	return res, err
}

// callPacked is CallPacked without the VM lock, for transfer paths that
// already hold it.
func (f *Function) callPacked(name string, args ...uint64) (OutputRef, error) {
	sw := metrics.NewStopwatch(f.shim.now)
	ptr, n, err := f.view.CallPacked(name, args...)
	f.shim.acct.CPU(metrics.User, sw.Lap())
	if err != nil {
		return OutputRef{}, fmt.Errorf("%s: %s: %w", f.name, name, err)
	}
	f.out = OutputRef{Ptr: ptr, Len: n}
	f.hasOut = true
	return f.out, nil
}

// CallPacked invokes a packed-result guest export (produce/serialize style),
// registering and recording the output region.
func (f *Function) CallPacked(name string, args ...uint64) (OutputRef, error) {
	f.shim.mu.Lock()
	defer f.shim.mu.Unlock()
	return f.callPacked(name, args...)
}

// Call invokes any guest export, charging guest time as user CPU. The
// results are copied before the VM lock drops: the interpreter's return
// slice aliases a recycled call frame that the next call on this VM
// overwrites, and unlike the transfer paths (which consume results while
// still holding the lock) Call's callers read them afterwards.
func (f *Function) Call(name string, args ...uint64) ([]uint64, error) {
	f.shim.mu.Lock()
	defer f.shim.mu.Unlock()
	res, err := f.call(name, args...)
	if len(res) > 0 {
		res = append([]uint64(nil), res...)
	}
	return res, err
}

// Deallocate returns a delivered region to the guest allocator
// (deallocate_memory), rewinding the bump heap when the region is the most
// recent live allocation.
func (f *Function) Deallocate(ptr uint32) error {
	f.shim.mu.Lock()
	defer f.shim.mu.Unlock()
	return f.view.Deallocate(ptr)
}

// Locate asks the guest for its output region (locate_memory_region),
// step 1 of every transfer (Fig. 4).
func (f *Function) Locate() (OutputRef, error) {
	f.shim.mu.Lock()
	defer f.shim.mu.Unlock()
	sw := metrics.NewStopwatch(f.shim.now)
	out, err := f.locateQuiet()
	f.shim.acct.CPU(metrics.User, sw.Lap())
	return out, err
}

// locateQuiet performs Locate without charging CPU; the transfer paths
// measure and charge the surrounding window themselves. Callers hold the
// shim's VM lock.
func (f *Function) locateQuiet() (OutputRef, error) {
	ptr, n, err := f.view.Locate()
	if err != nil {
		return OutputRef{}, err
	}
	f.out = OutputRef{Ptr: ptr, Len: n}
	f.hasOut = true
	return f.out, nil
}
