// Package wasi implements the minimal WASI-like host interface the baseline
// (WasmEdge-style) data path uses, reproducing the boundary costs the paper
// attributes to WASI-mediated host interaction (§2.1 "WASI Overhead"):
// every call crosses the sandbox boundary through a host function, stages
// payload bytes in a host-side buffer (one user-space copy), and then enters
// the simulated kernel through a metered syscall (one kernel copy) — the
// "multiple context switches and data copies between user and kernel space"
// of §1.
//
// Provided functions (module name "wasi_snapshot_preview1"-style shortened
// to "wasi"): sock_send, sock_recv, fd_read, fd_write, clock_time_get,
// random_get.
package wasi

import (
	"fmt"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
)

// ModuleName is the import module guests use for WASI functions.
const ModuleName = "wasi"

// Errno values returned to the guest (subset).
const (
	ErrnoSuccess uint32 = 0
	ErrnoBadF    uint32 = 8
	ErrnoInval   uint32 = 28
	ErrnoIO      uint32 = 29
)

// Host binds a guest to a simulated-kernel process, exposing WASI-style host
// functions. Files backs fd_read with in-memory file contents by descriptor.
type Host struct {
	proc  *kernel.Proc
	acct  *metrics.Account
	now   func() uint64 // nanoseconds, injectable for tests
	rng   uint64
	Files map[int][]byte
	// staging is the reusable host-side buffer that models the iovec
	// staging copy real WASI implementations perform between linear
	// memory and the syscall.
	staging []byte
}

// NewHost creates a WASI host bound to a simulated process. acct is charged
// for the staging copies; it may be nil.
func NewHost(proc *kernel.Proc, acct *metrics.Account) *Host {
	return &Host{
		proc:  proc,
		acct:  acct,
		now:   func() uint64 { return 0 },
		rng:   0x9E3779B97F4A7C15,
		Files: make(map[int][]byte),
	}
}

// SetClock injects a monotonic nanosecond clock.
func (h *Host) SetClock(now func() uint64) { h.now = now }

// Imports returns the WASI host functions for instantiation.
func (h *Host) Imports() map[string]wasm.HostFunc {
	i32 := wasm.I32
	sig3 := wasm.FuncType{Params: []wasm.ValType{i32, i32, i32}, Results: []wasm.ValType{i32}}
	return map[string]wasm.HostFunc{
		"sock_send":      {Type: sig3, Fn: h.sockSend},
		"sock_recv":      {Type: sig3, Fn: h.sockRecv},
		"fd_read":        {Type: sig3, Fn: h.fdRead},
		"fd_write":       {Type: sig3, Fn: h.fdWrite},
		"clock_time_get": {Type: wasm.FuncType{Results: []wasm.ValType{wasm.I64}}, Fn: h.clockTimeGet},
		"random_get":     {Type: wasm.FuncType{Params: []wasm.ValType{i32, i32}, Results: []wasm.ValType{i32}}, Fn: h.randomGet},
	}
}

func (h *Host) stage(n int) []byte {
	if cap(h.staging) < n {
		h.staging = make([]byte, n)
	}
	return h.staging[:n]
}

// sockSend copies [ptr, ptr+len) out of linear memory into the staging
// buffer, then writes it to the socket through the kernel. Two copies + one
// syscall, as on a real WASI runtime.
func (h *Host) sockSend(ctx *wasm.HostContext, args []uint64) ([]uint64, error) {
	fd, ptr, n := int(int32(args[0])), uint32(args[1]), uint32(args[2])
	mem := ctx.Memory()
	view, err := mem.View(ptr, n)
	if err != nil {
		return []uint64{uint64(ErrnoInval)}, nil
	}
	buf := h.stage(int(n))
	copy(buf, view)
	h.acct.Copy(metrics.User, int(n))
	if _, err := h.proc.Write(fd, buf); err != nil {
		return []uint64{uint64(ErrnoIO)}, nil
	}
	return []uint64{uint64(ErrnoSuccess)}, nil
}

// sockRecv reads from the socket into the staging buffer, then copies into
// linear memory. Returns the byte count through errno-free convention:
// negative errno is encoded in the sign bit; success returns the count.
func (h *Host) sockRecv(ctx *wasm.HostContext, args []uint64) ([]uint64, error) {
	fd, ptr, n := int(int32(args[0])), uint32(args[1]), uint32(args[2])
	mem := ctx.Memory()
	if _, err := mem.View(ptr, n); err != nil {
		return []uint64{uint64(negErrno(ErrnoInval))}, nil
	}
	buf := h.stage(int(n))
	got, err := h.proc.Read(fd, buf)
	if err != nil && got == 0 {
		return []uint64{uint64(negErrno(ErrnoIO))}, nil
	}
	if err := mem.WriteAt(buf[:got], ptr); err != nil {
		return []uint64{uint64(negErrno(ErrnoInval))}, nil
	}
	h.acct.Copy(metrics.User, got)
	return []uint64{uint64(uint32(got))}, nil
}

// fdRead copies from an in-memory file into linear memory (staging copy +
// boundary copy), consuming the file contents as a stream.
func (h *Host) fdRead(ctx *wasm.HostContext, args []uint64) ([]uint64, error) {
	fd, ptr, n := int(int32(args[0])), uint32(args[1]), uint32(args[2])
	data, ok := h.Files[fd]
	if !ok {
		return []uint64{uint64(negErrno(ErrnoBadF))}, nil
	}
	if int(n) > len(data) {
		n = uint32(len(data))
	}
	h.proc.Account().Syscall()
	buf := h.stage(int(n))
	copy(buf, data[:n])
	h.acct.Copy(metrics.Kernel, int(n)) // file read crosses the kernel
	if err := ctx.Memory().WriteAt(buf, ptr); err != nil {
		return []uint64{uint64(negErrno(ErrnoInval))}, nil
	}
	h.acct.Copy(metrics.User, int(n))
	h.Files[fd] = data[n:]
	return []uint64{uint64(uint32(n))}, nil
}

// fdWrite discards payload (stdout-style sink) after performing the same
// staging + kernel copies a real fd_write would.
func (h *Host) fdWrite(ctx *wasm.HostContext, args []uint64) ([]uint64, error) {
	_, ptr, n := int(int32(args[0])), uint32(args[1]), uint32(args[2])
	view, err := ctx.Memory().View(ptr, n)
	if err != nil {
		return []uint64{uint64(negErrno(ErrnoInval))}, nil
	}
	buf := h.stage(int(n))
	copy(buf, view)
	h.acct.Copy(metrics.User, int(n))
	h.proc.Account().Syscall()
	h.acct.Copy(metrics.Kernel, int(n))
	return []uint64{uint64(uint32(n))}, nil
}

func (h *Host) clockTimeGet(_ *wasm.HostContext, _ []uint64) ([]uint64, error) {
	return []uint64{h.now()}, nil
}

func (h *Host) randomGet(ctx *wasm.HostContext, args []uint64) ([]uint64, error) {
	ptr, n := uint32(args[0]), uint32(args[1])
	view, err := ctx.Memory().View(ptr, n)
	if err != nil {
		return []uint64{uint64(ErrnoInval)}, nil
	}
	for i := range view {
		h.rng = h.rng*6364136223846793005 + 1442695040888963407
		view[i] = byte(h.rng >> 56)
	}
	return []uint64{uint64(ErrnoSuccess)}, nil
}

// AddImports registers every WASI function under ModuleName.
func (h *Host) AddImports(im wasm.Imports) {
	for name, f := range h.Imports() {
		im.Add(ModuleName, name, f)
	}
}

// String describes the host binding for diagnostics.
func (h *Host) String() string {
	return fmt.Sprintf("wasi host on %s", h.proc.Name())
}

// negErrno encodes an errno as the negative i32 return convention used by
// the count-returning WASI calls.
func negErrno(errno uint32) uint32 { return uint32(-int32(errno)) }
