package baseline

import (
	"errors"
	"fmt"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/abi"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasi"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
)

// WasmEdgeFunction is a Wasm serverless function on the state-of-the-art
// data path (§2.2, Fig. 1a): payloads are serialized inside the sandbox and
// pushed through WASI socket calls, paying the boundary copies and context
// switches the paper measures. One VM per sandbox (no Roadrunner shim
// mediation).
type WasmEdgeFunction struct {
	name      string
	proc      *kernel.Proc
	acct      *metrics.Account
	now       func() time.Time
	inst      *wasm.Instance
	view      *abi.View
	wasiHost  *wasi.Host
	coldStart time.Duration
	out       struct{ ptr, n uint32 }
}

// NewWasmEdgeFunction provisions a Wasm-runtime function: modeled binary
// pull + measured decode/instantiate. now may be nil.
func NewWasmEdgeFunction(name string, k *kernel.Kernel, module []byte, now func() time.Time) (*WasmEdgeFunction, error) {
	if now == nil {
		now = time.Now
	}
	sw := metrics.NewStopwatch(now)
	acct := &metrics.Account{}
	proc := k.NewProc(name, acct)
	f := &WasmEdgeFunction{name: name, proc: proc, acct: acct, now: now}
	f.wasiHost = wasi.NewHost(proc, acct)

	imports := wasm.Imports{}
	f.wasiHost.AddImports(imports)
	imports.Add(abi.ImportModule, abi.ImportSendToHost, abi.SendToHostImport(func(ptr, n uint32) {
		f.out.ptr, f.out.n = ptr, n
	}))
	m, err := wasm.Decode(module)
	if err != nil {
		return nil, fmt.Errorf("wasmedge %s: %w", name, err)
	}
	inst, err := wasm.Instantiate(m, imports, &wasm.Config{
		MemoryResizeHook: func(delta int64) { acct.Allocate(delta) },
	})
	if err != nil {
		return nil, fmt.Errorf("wasmedge %s: %w", name, err)
	}
	f.inst = inst
	view, err := abi.NewView(inst, acct)
	if err != nil {
		return nil, fmt.Errorf("wasmedge %s: %w", name, err)
	}
	f.view = view
	f.coldStart = PullTime(WasmBinaryBytes) + WasmShimInitTime + sw.Lap()
	return f, nil
}

// Name returns the function name.
func (f *WasmEdgeFunction) Name() string { return f.name }

// Account returns the sandbox resource account.
func (f *WasmEdgeFunction) Account() *metrics.Account { return f.acct }

// WASI exposes the function's WASI host (to preload files).
func (f *WasmEdgeFunction) WASI() *wasi.Host { return f.wasiHost }

// ColdStart reports provisioning time.
func (f *WasmEdgeFunction) ColdStart() time.Duration { return f.coldStart }

// Close tears the sandbox down.
func (f *WasmEdgeFunction) Close() { f.proc.CloseAll() }

// call charges guest execution to user CPU.
func (f *WasmEdgeFunction) call(name string, args ...uint64) ([]uint64, error) {
	sw := metrics.NewStopwatch(f.now)
	res, err := f.inst.Call(name, args...)
	f.acct.CPU(metrics.User, sw.Lap())
	return res, err
}

// Produce runs the guest payload generator.
func (f *WasmEdgeFunction) Produce(n int) error {
	sw := metrics.NewStopwatch(f.now)
	ptr, m, err := f.view.CallPacked(guest.ExportProduce, uint64(n))
	f.acct.CPU(metrics.User, sw.Lap())
	if err != nil {
		return err
	}
	f.out.ptr, f.out.n = ptr, m
	return nil
}

// Checksum digests a delivered region with the guest consumer.
func (f *WasmEdgeFunction) Checksum(ptr, n uint32) (uint64, error) {
	res, err := f.call(guest.ExportConsume, uint64(ptr), uint64(n))
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// Hello runs the trivial guest of Fig. 2a.
func (f *WasmEdgeFunction) Hello() (uint64, error) {
	res, err := f.call(guest.ExportHello)
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// ResizeHalf runs the guest image kernel after loading the input image via
// WASI fd_read (the WASI-bound workload of Fig. 2a).
func (f *WasmEdgeFunction) ResizeHalf(image []byte, w, h int) (time.Duration, error) {
	f.wasiHost.Files[3] = image
	sw := metrics.NewStopwatch(f.now)
	res, err := f.inst.Call(guest.ExportFillFromFile, 3, uint64(len(image)))
	if err != nil {
		return 0, err
	}
	ptr, _ := abi.Unpack(res[0])
	if _, err := f.inst.Call(guest.ExportResizeHalf, uint64(ptr), uint64(w), uint64(h)); err != nil {
		return 0, err
	}
	d := sw.Lap()
	f.acct.CPU(metrics.User, d)
	return d, nil
}

// Release frees a guest allocation (for iterated benchmarks).
func (f *WasmEdgeFunction) Release(ptr uint32) error {
	return f.view.Deallocate(ptr)
}

// Transfer is the WasmEdge baseline data path (Fig. 1a on Wasm): serialize
// inside the source sandbox, send through WASI sockets, receive through WASI
// sockets, deserialize inside the target sandbox.
func (f *WasmEdgeFunction) Transfer(dst *WasmEdgeFunction, env TransferEnv) (ptr, n uint32, report metrics.TransferReport, err error) {
	beforeSrc := f.acct.Snapshot()
	beforeDst := dst.acct.Snapshot()
	fail := func(e error) (uint32, uint32, metrics.TransferReport, error) {
		return 0, 0, metrics.TransferReport{}, e
	}

	// In-sandbox serialization (the dominant Wasm cost of §2.2). The guest
	// does the work — the wire bytes, copies and allocations are real — and
	// its time is charged at the modeled WasmEdge codec speed (codecTime).
	res, err := f.inst.Call(guest.ExportSerialize, uint64(f.out.ptr), uint64(f.out.n))
	if err != nil {
		return fail(fmt.Errorf("wasmedge serialize: %w", err))
	}
	encPtr, encLen := abi.Unpack(res[0])
	serT := codecTime(int64(encLen))
	f.acct.CPU(metrics.User, serT)

	// WASI socket send: staging copy + kernel copy + syscalls.
	swT := metrics.NewStopwatch(f.now)
	cfd, sfd := kernel.Connect(f.proc, dst.proc)
	// Failures past the connect close both socket ends before surfacing, so
	// an aborted baseline transfer strands no descriptor in either sandbox.
	failConn := func(e error) (uint32, uint32, metrics.TransferReport, error) {
		_ = f.proc.Close(cfd)
		_ = dst.proc.Close(sfd)
		return fail(e)
	}
	res, err = f.inst.Call(guest.ExportSockSendAll, uint64(cfd), uint64(encPtr), uint64(encLen))
	if err != nil {
		return failConn(fmt.Errorf("wasmedge send: %w", err))
	}
	if uint32(res[0]) != wasi.ErrnoSuccess {
		return failConn(fmt.Errorf("wasmedge send errno %d", res[0]))
	}
	sendT := swT.Lap()
	f.acct.CPU(metrics.Kernel, sendT)

	// WASI socket receive into a guest buffer.
	swR := metrics.NewStopwatch(dst.now)
	dstPtr, err := dst.view.Allocate(encLen)
	if err != nil {
		return failConn(err)
	}
	// Failures past the receive allocation rewind the destination's bump
	// heap (the staging buffer is its top allocation) before surfacing, so
	// an aborted baseline transfer does not strand the buffer.
	abort := func(e error) (uint32, uint32, metrics.TransferReport, error) {
		if derr := dst.view.Deallocate(dstPtr); derr != nil {
			e = errors.Join(e, derr)
		}
		return failConn(e)
	}
	res, err = dst.inst.Call(guest.ExportSockRecvExact, uint64(sfd), uint64(dstPtr), uint64(encLen))
	if err != nil {
		return abort(fmt.Errorf("wasmedge recv: %w", err))
	}
	if uint32(res[0]) != 0 {
		return abort(fmt.Errorf("wasmedge recv errno %d", res[0]))
	}
	recvT := swR.Lap()
	dst.acct.CPU(metrics.Kernel, recvT)

	// In-sandbox deserialization, charged like serialization.
	res, err = dst.inst.Call(guest.ExportDeserialize, uint64(dstPtr), uint64(encLen))
	if err != nil {
		return abort(fmt.Errorf("wasmedge deserialize: %w", err))
	}
	decPtr, decLen := abi.Unpack(res[0])
	deT := codecTime(int64(encLen))
	dst.acct.CPU(metrics.User, deT)

	_ = f.proc.Close(cfd)
	_ = dst.proc.Close(sfd)
	dst.out.ptr, dst.out.n = decPtr, decLen

	usage := f.acct.Snapshot().Sub(beforeSrc).Add(dst.acct.Snapshot().Sub(beforeDst))
	report = metrics.TransferReport{
		Bytes: int64(encLen),
		Breakdown: metrics.Breakdown{
			Serialization: serT + deT,
			Transfer:      sendT + recvT + f.proc.Kernel().SyscallTime(usage.Syscalls),
			Network:       env.networkTime(int64(encLen)),
		},
		Usage: usage,
		Mode:  "wasmedge-http",
	}
	// Re-verified with the interprocedural analyzer: the suppressed path is
	// exactly this success return, which hands out decPtr while dstPtr's
	// staging buffer stays allocated. No flow analysis can prove this safe —
	// the argument rests on bump-heap address ordering (decPtr sits above
	// dstPtr, so a rewind would free the result), which lives outside the
	// analyzer's model. The stagingGarbage fixture in regionrelease's
	// testdata pins this exact shape as a true diagnostic.
	//roadvet:ignore regionrelease the decoded output sits above the encoded staging buffer in the guest bump heap, so rewinding it would free the result; the buffer is reclaimed with the instance, mirroring the baseline's in-sandbox garbage
	return decPtr, decLen, report, nil
}
