package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/pagebuf"
)

// ErrSameVM signals a kernel/network transfer attempted between functions of
// one VM, where user-space transfer applies instead.
var ErrSameVM = fmt.Errorf("core: functions share a Wasm VM; use user-space transfer")

// InboundRef locates data the shim delivered into a target function's linear
// memory.
type InboundRef struct {
	Ptr uint32
	Len uint32
}

// ingressAbort rewinds an aborted ingress stage: the drain holds the VM
// lock, so dstPtr is the VM's top allocation and handing it back leaves the
// target's bump heap where the transfer found it. Shared by every ingress
// failure path — cancellation, a faulted syscall, a dead channel.
func ingressAbort(f *Function, dstPtr uint32, err error) (InboundRef, error) {
	_ = f.view.Deallocate(dstPtr)
	return InboundRef{}, err
}

// ingressRegion is the prologue every cross-sandbox ingress shares
// (Algorithm 1 lines 15-20): allocate n bytes in the target and take the
// writable view the drain deposits into, charged as Wasm IO. Callers hold
// the target's VM lock and rewind with ingressAbort on any later failure.
func ingressRegion(f *Function, n uint32, m *stageMetrics) (uint32, []byte, error) {
	s := f.shim
	sw := metrics.NewStopwatch(s.now)
	dstPtr, err := f.view.Allocate(n)
	if err != nil {
		return 0, nil, err
	}
	wv, err := f.view.WritableView(dstPtr, n)
	if err != nil {
		_ = f.view.Deallocate(dstPtr)
		return 0, nil, err
	}
	allocT := sw.Lap()
	s.acct.CPU(metrics.User, allocT)
	m.wasmIO += allocT
	return dstPtr, wv, nil
}

// copySend is the copy path's send half, shared by kernel mode and the
// ForceCopyPath ablation: one write(2) — one copy_from_user — of the source
// view into fd. On the kernel channel's sized socket the write queues up to
// the send window ahead of the target stage and relays with it once it is
// there, so this goroutine may spend part of the call copying into the
// target's memory. Its lap is charged as it always was, to the account of
// the Proc whose syscall it is — the source's: CPU time follows the thread,
// the syscall and copy counts follow the Proc.
func copySend(s *Shim, fd int, view []byte, m *stageMetrics) error {
	sw := metrics.NewStopwatch(s.now)
	if _, err := s.proc.Write(fd, view); err != nil {
		return fmt.Errorf("copy-path send: %w", err)
	}
	sendT := sw.Lap()
	s.acct.CPU(metrics.Kernel, sendT)
	m.transfer += sendT
	return nil
}

// copyRecv is the copy path's receive half: one recv(MSG_WAITALL) straight
// into the target's linear memory (filled, once the two calls relay, by both
// stages' goroutines; the lap here is this goroutine's, charged to the
// target's account). The context is polled on both sides of the call — the
// receive itself ends when the payload is in or the channel dies, and a
// failing source stage destroys the channel.
func copyRecv(s *Shim, ctx context.Context, fd int, wv []byte, m *stageMetrics) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	sw := metrics.NewStopwatch(s.now)
	n, err := s.proc.ReadFull(fd, wv)
	if errors.Is(err, io.EOF) {
		err = fmt.Errorf("%d of %d bytes: %w", n, len(wv), kernel.ErrClosed)
	}
	if err != nil {
		return fmt.Errorf("copy-path recv: %w", err)
	}
	recvT := sw.Lap()
	s.acct.CPU(metrics.Kernel, recvT)
	m.transfer += recvT
	return CtxErr(ctx)
}

// UserOptions tunes a user-space transfer.
type UserOptions struct {
	// Ctx cancels the transfer; nil means never cancelled. The user-space
	// path is a single locked stage, so cancellation is only observed at
	// entry.
	Ctx context.Context
	// SourceRef pins the source region to transfer instead of asking the
	// guest for its latest output: set_output + locate run atomically
	// inside the transfer, which is what lets streaming chains hand a
	// delivered region to the next hop without a race window (see
	// Function.sourceOutput).
	SourceRef *OutputRef
}

// UserSpaceTransfer moves the source function's current output into the
// target function within the same Wasm VM (§4.1, Fig. 4a):
//
//  1. locate_memory_region on the source,
//  2. read_output through the shim's zero-copy view,
//  3. allocate_memory in the target,
//  4. write_output into the target's linear memory.
//
// One user-space copy total, no serialization, no kernel involvement. Both
// functions live in one VM, so the single VM lock covers the whole move —
// the degenerate (stage-less) case of the pipeline.
func UserSpaceTransfer(src, dst *Function, opts UserOptions) (InboundRef, metrics.TransferReport, error) {
	if src.shim != dst.shim {
		return InboundRef{}, metrics.TransferReport{}, ErrDifferentVM
	}
	if src.shim.workflow != dst.shim.workflow {
		return InboundRef{}, metrics.TransferReport{}, ErrWorkflowMismatch
	}
	if err := CtxErr(opts.Ctx); err != nil {
		return InboundRef{}, metrics.TransferReport{}, err
	}
	s := src.shim
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.acct.Snapshot()
	sw := metrics.NewStopwatch(s.now)

	out, err := src.sourceOutput(opts.SourceRef)
	if err != nil {
		return InboundRef{}, metrics.TransferReport{}, err
	}
	view, err := src.view.ReadView(out.Ptr, out.Len)
	if err != nil {
		return InboundRef{}, metrics.TransferReport{}, err
	}
	dstPtr, err := dst.view.Allocate(out.Len)
	if err != nil {
		return InboundRef{}, metrics.TransferReport{}, err
	}
	if err := dst.view.Write(view, dstPtr); err != nil {
		// The copy never landed; rewind the destination's bump heap (the
		// region is its top allocation) so the aborted transfer leaves the
		// target where it found it.
		if derr := dst.view.Deallocate(dstPtr); derr != nil {
			err = errors.Join(err, derr)
		}
		return InboundRef{}, metrics.TransferReport{}, err
	}

	elapsed := sw.Lap()
	s.acct.CPU(metrics.User, elapsed)
	report := metrics.TransferReport{
		Bytes:     int64(out.Len),
		Breakdown: metrics.Breakdown{WasmIO: elapsed},
		Usage:     s.acct.Snapshot().Sub(before),
		Mode:      "user",
	}
	return InboundRef{Ptr: dstPtr, Len: out.Len}, report, nil
}

// KernelOptions tunes a kernel-space transfer.
type KernelOptions struct {
	// Ctx cancels the transfer; nil means never cancelled. Cancellation is
	// observed at pipeline entry, at the stage boundary, and on both sides
	// of the ingress's one receive; an aborted transfer destroys the pair's
	// channel exactly as every other transfer failure does.
	Ctx context.Context
	// NoChannelCache forces per-call socketpair establishment and teardown
	// (the pre-cache behavior; the cold-path ablation). By default the IPC
	// channel is a persistent cached socketpair reused across transfers of
	// the same shim pair.
	NoChannelCache bool
	// PhaseLocked runs the transfer in the pre-pipeline locking regime —
	// both VM locks held for the whole operation — kept as the ablation
	// baseline for the staged pipeline's stage-scoped locks.
	PhaseLocked bool
	// SourceRef pins the source region (see UserOptions.SourceRef).
	SourceRef *OutputRef
	// Gates carries test instrumentation (see PipelineGates).
	Gates *PipelineGates
}

// kernelOps is the kernel-mode stage pair. A zero-size stateless type:
// everything the stages need travels in the pipelineState, so a warm
// transfer builds no per-call closures.
type kernelOps struct{}

// egress is steps 1-2 then the send half: locate + zero-copy read of the
// source region (Wasm IO), one copy_from_user into the socketpair. Runs
// under the source VM lock.
//
// A payload longer than one relay segment (a slab) hands the caller's core
// to the ingress it has just dispatched: one yield, after which the receive
// runs here, hot, and is inside ReadFull before the Write starts, while this
// goroutine continues on the other core from the run queue. The whole
// payload then relays from its first segment — nothing is queued ahead of
// an absent reader, nobody parks on a full window — and the second core
// joins from the run queue, which on a 2-vCPU VM takes ~6 µs where stealing
// a goroutine readied next in line on a running P takes ~64 µs
// (BenchmarkSecondCoreJoin; DESIGN §3, "the copy path"). A single-segment
// payload has nothing to relay and keeps queueing its one slab.
func (kernelOps) egress(st *pipelineState) (OutputRef, error) {
	f := st.spec.src
	s := f.shim
	swIO := metrics.NewStopwatch(s.now)
	out, err := f.sourceOutput(st.spec.sourceRef)
	if err != nil {
		return OutputRef{}, err
	}
	view, err := f.view.ReadView(out.Ptr, out.Len)
	if err != nil {
		return OutputRef{}, err
	}
	ioT := swIO.Lap()
	s.acct.CPU(metrics.User, ioT)
	st.em.wasmIO += ioT
	st.announce(out)
	if len(view) > pagebuf.SlabSize {
		runtime.Gosched()
	}
	return out, copySend(s, st.ch.fdA, view, &st.em)
}

// ingress is steps 4-6: allocate in the target and receive straight into
// its linear memory. Runs under the target VM lock.
func (kernelOps) ingress(st *pipelineState, out OutputRef) (InboundRef, error) {
	f := st.spec.dst
	dstPtr, wv, err := ingressRegion(f, out.Len, &st.im)
	if err != nil {
		return InboundRef{}, err
	}
	if err := copyRecv(f.shim, st.spec.ctx, st.ch.fdB, wv, &st.im); err != nil {
		return ingressAbort(f, dstPtr, err)
	}
	return InboundRef{Ptr: dstPtr, Len: out.Len}, nil
}

// KernelSpaceTransfer moves the source's output to a function in a different
// sandbox on the same host via Unix-socket IPC (§4.2, Fig. 4b; §5 uses Unix
// sockets as the IPC mechanism). The payload crosses the kernel exactly
// twice — copy_from_user on send, copy directly into the target's linear
// memory on receive — with no serialization. The socketpair is a cached
// channel: only the first transfer of a pair pays the establishment syscall
// (reported as the Setup breakdown component); warm transfers touch the
// kernel exactly twice, once per payload crossing.
//
// The transfer runs as a staged pipeline (pipeline.go): the source VM is
// locked for the source's one write, the target VM for the target's one
// receive, and the two stages overlap for real — the socketpair carries a
// send window (kernelSendWindow), so a write can queue at most four slabs
// ahead of the receive, and once both calls are in progress they relay: the
// two stages' goroutines each move whole segments source → a kernel block of
// their own → target, instead of staging the payload or conveying it slab
// by slab from one core to the other. A payload of more than one segment
// gives the receive the caller's core at dispatch (see kernelOps.egress), so
// the receive is waiting when the write starts and the two relay from the
// first segment.
func KernelSpaceTransfer(src, dst *Function, opts KernelOptions) (InboundRef, metrics.TransferReport, error) {
	if src.shim == dst.shim {
		return InboundRef{}, metrics.TransferReport{}, ErrSameVM
	}
	if src.shim.Kernel() != dst.shim.Kernel() {
		return InboundRef{}, metrics.TransferReport{}, ErrDifferentNode
	}
	spec := pipelineSpec{
		mode:        "kernel",
		kind:        chanKernel,
		perCall:     opts.NoChannelCache,
		phaseLocked: opts.PhaseLocked,
		ctx:         opts.Ctx,
		gates:       opts.Gates,
		src:         src,
		dst:         dst,
		sourceRef:   opts.SourceRef,
		ops:         kernelOps{},
	}
	return runPipeline(&spec)
}
