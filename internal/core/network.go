package core

import (
	"context"
	"fmt"
	"runtime"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/pagebuf"
)

// NetworkOptions tunes a network-mode transfer.
type NetworkOptions struct {
	// Ctx cancels the transfer; nil means never cancelled. Cancellation is
	// observed at pipeline entry, at the stage boundary, and at every hose
	// chunk of both stage loops; an aborted transfer destroys the pair's
	// channel (draining stranded pages) exactly as other failures do.
	Ctx context.Context
	// Link is the modeled network path between the two nodes; nil means
	// no network time is attributed (testing).
	Link *netsim.Link
	// NoChannelCache forces per-call channel establishment and teardown
	// (the connection is created and closed around every transfer — the
	// paper's per-call Algorithm 1, kept as the reference syscall trace the
	// cached path is checked against). By default the channel is cached and
	// reused across transfers of the same shim pair, so warm transfers
	// issue zero connect syscalls.
	NoChannelCache bool
	// SourceRef pins the source region (see UserOptions.SourceRef).
	SourceRef *OutputRef
	// Gates carries test instrumentation (see PipelineGates).
	Gates *PipelineGates
}

// NetworkTransfer implements Algorithm 1: the source shim maps the guest's
// output pages into a dedicated pipe (the virtual data hose) with vmsplice,
// splices them into a socket towards the target node, and the target shim
// splices them back out of its socket and writes them into the target
// function's linear memory. No user↔kernel payload copies occur on the wire
// path; the only copy is the final write into the target VM's memory —
// the paper's "near-zero copy" (§7).
//
// The two sides run as the staged pipeline of pipeline.go, mirroring the
// paper's real deployment where FunctionA's shim and FunctionB's shim are
// separate processes executing Algorithm 1 concurrently: the source VM is
// locked only while its pages enter the hose, the target VM only while the
// hose drains into linear memory, and the target drains chunk k while the
// source vmsplices chunk k+1.
//
// The control plane is split: each shim creates its hose pipe once, with
// its sandbox, and the connection is a cached channel (channels.go): only
// the first transfer between a shim pair pays it (reported as
// Breakdown.Setup), and warm transfers issue zero connect/pipe syscalls.
// Teardown moves from per-call close_all to channel
// eviction and shim Close; NoChannelCache restores the per-call behavior.
// That is the only variant: the copies and the serialization Algorithm 1
// avoids are measured by the runC and WasmEdge baselines (DESIGN.md §5),
// never by switching them back on here.
func NetworkTransfer(src, dst *Function, opts NetworkOptions) (InboundRef, metrics.TransferReport, error) {
	if src.shim == dst.shim {
		return InboundRef{}, metrics.TransferReport{}, ErrSameVM
	}
	if src.shim.Kernel() == dst.shim.Kernel() {
		return InboundRef{}, metrics.TransferReport{}, ErrSameNode
	}
	spec := pipelineSpec{
		mode:       "network",
		kind:       chanNetwork,
		perCall:    opts.NoChannelCache,
		ctx:        opts.Ctx,
		gates:      opts.Gates,
		src:        src,
		dst:        dst,
		link:       opts.Link,
		chunkBytes: src.shim.hoseCap,
		sourceRef:  opts.SourceRef,
	}
	return runPipeline(&spec, networkOps{})
}

// hoseChunks is the number of hose-sized chunks a payload crosses in.
func hoseChunks(out OutputRef, hoseCap int) int {
	if hoseCap <= 0 || out.Len == 0 {
		return 1
	}
	k := (int(out.Len) + hoseCap - 1) / hoseCap
	if k < 1 {
		k = 1
	}
	return k
}

// networkOps is the network-mode stage pair, Algorithm 1's two halves; like
// kernelOps it is a zero-size stateless type reading everything from the
// pipelineState.
type networkOps struct{}

// egress is FunctionA's side of Algorithm 1 (lines 1-13) for one target:
// the source stage every multicast shares too (Function.source).
func (networkOps) egress(st *pipelineState) (OutputRef, error) {
	legs := [1]*pipelineState{st}
	return st.spec.src.source(st.spec.ctx, st.spec.sourceRef, legs[:], &st.em)
}

// source is the source stage of a network transfer and of a multicast, under
// the source VM lock alone: locate the output region and take its zero-copy
// view (Wasm IO, charged to m), announce the region to every leg — the legs
// drain while the chunks still flow — and push the payload through the
// shim's hose into every leg's channel (the transfer, charged to m). A
// failure before the announce dispatched no leg.
func (f *Function) source(ctx context.Context, pinned *OutputRef, legs []*pipelineState, m *stageMetrics) (OutputRef, error) {
	s := f.shim
	s.mu.Lock()
	defer s.mu.Unlock()
	// Algorithm 1 lines 1-4 and read_memory_host.
	sw := metrics.NewStopwatch(s.now)
	out, err := f.sourceOutput(pinned)
	if err != nil {
		return OutputRef{}, err
	}
	view, err := f.view.ReadView(out.Ptr, out.Len)
	if err != nil {
		return OutputRef{}, err
	}
	ioT := sw.Lap()
	s.acct.CPU(metrics.User, ioT)
	m.wasmIO += ioT
	for _, st := range legs {
		st.announce(out)
	}
	swT := metrics.NewStopwatch(s.now)
	err = s.push(ctx, view, legs)
	sendT := swT.Lap()
	s.acct.CPU(metrics.Kernel, sendT)
	m.transfer += sendT
	return out, err
}

// push is network_data_transfer_source (Algorithm 1 lines 6-13) for one
// target or a tee group. Per hose chunk: vmsplice(vdh, address, length)
// gifts the guest pages into the shim's hose without copying; tee(2) clones
// the page references into the socket of every leg but the last, and
// splice(vdh, socket, length) moves them into the last leg's. The hose is
// empty after every chunk; a failure mid-chunk resets it. Callers hold s's
// VM lock; ctx is polled per chunk.
func (s *Shim) push(ctx context.Context, view []byte, legs []*pipelineState) error {
	last := legs[len(legs)-1].ch
	for off := 0; off < len(view); {
		if err := CtxErr(ctx); err != nil {
			return err
		}
		chunk := min(len(view)-off, s.hoseCap)
		if _, err := s.proc.Vmsplice(s.hoseW, view[off:off+chunk]); err != nil {
			return s.resetHose(fmt.Errorf("vmsplice: %w", err))
		}
		for _, st := range legs[:len(legs)-1] {
			// tee(2) does not consume the pipe, so one call covers the
			// whole (fully queued) chunk; a short clone would duplicate its
			// prefix again and must be treated as a fault.
			n, err := s.proc.Tee(s.hoseR, st.ch.srcFD, chunk)
			if err == nil && n != chunk {
				err = fmt.Errorf("short clone %d of %d", n, chunk)
			}
			if err != nil {
				return s.resetHose(fmt.Errorf("tee to %s: %w", st.ch.dst.name, err))
			}
		}
		for moved := 0; moved < chunk; {
			n, err := s.proc.Splice(s.hoseR, last.srcFD, chunk-moved)
			if err != nil {
				return s.resetHose(fmt.Errorf("splice to %s: %w", last.dst.name, err))
			}
			moved += n
		}
		off += chunk
	}
	return nil
}

// ingress is FunctionB's side of Algorithm 1 (lines 15-29), under the target
// VM lock alone: allocate target memory, then splice each chunk from the
// socket into the target shim's hose and deposit its pages into linear
// memory — the single unavoidable copy of the near-zero-copy path
// (network_data_transfer_target, lines 21-29).
//
// It is also every multicast leg's ingress. A cross-node leg is the same
// target half of Algorithm 1; a same-node leg skips the hose and pops the
// teed page references straight off its socketpair end. Either leg drains
// as a unicast does (drainHose), and its descriptors stay open: teardown
// belongs to the channel's lifecycle.
func (networkOps) ingress(st *pipelineState, out OutputRef) (InboundRef, error) {
	f := st.spec.dst
	s := f.shim
	s.mu.Lock()
	defer s.mu.Unlock()
	dstPtr, wv, err := ingressRegion(f, out.Len, &st.im)
	if err != nil {
		return InboundRef{}, err
	}
	if err := drainHose(s, st.spec.ctx, wv, st.ch, &st.im, st); err != nil {
		return ingressAbort(f, dstPtr, err)
	}
	return InboundRef{Ptr: dstPtr, Len: out.Len}, nil
}

// depositPiece is the unit a striped drain hands out: each hose chunk is cut
// into pieces of at most this many bytes, and either depositor claims them
// one at a time.
const depositPiece = 256 << 10

// drainHose is the receive loop every zero-copy ingress shares
// (network_data_transfer_target, Algorithm 1 lines 21-29): per hose-sized
// chunk, splice(socket_fd, target_vdh, length) moves the page references
// from ch's socket into s's hose, then write_memory_host takes them off the
// hose and deposits them directly into wv, the target VM's linear memory —
// the single unavoidable copy of the near-zero-copy path. A same-node
// fan-out leg needs no hose: the references come straight off its
// socketpair end. Callers hold the target's VM lock; ctx (nil = never
// cancelled) is polled at every chunk boundary, and a failure mid-chunk
// resets the hose.
//
// When st's spec is striped — a transfer of more than one piece, whose
// caller goroutine serves the deposit slot at the join (awaitIngress), a
// unicast's or a cast leg's alike —
// the drain runs over two depositors: the loop still issues every syscall,
// but publishes every chunk it reads as pieces in st.depositCh (publish), and
// after the last chunk drains the slot alongside the caller (joinDeposits).
// After its first publish it yields once: the caller, readied by that send
// into this core's next-in-line slot, starts copying here at once, and this
// goroutine rejoins from the run queue rather than the caller waiting to be
// stolen onto the other core. The VM lock this goroutine holds covers the
// caller's writes: it is not released before joinDeposits has settled every
// published piece, on every return path, so nothing writes wv after an abort
// rewinds the target's heap. A cast's caller joins its legs in order, so a
// leg it has not reached yet copies its own pieces: in publish once the slot
// is full, and in joinDeposits.
//
// Kernel time lands in m.transfer, this goroutine's deposits in m.wasmIO
// together with its yield and its wait at the join: m.wasmIO is the stage's
// critical path, never the sum over depositors. CPU is charged per
// depositor — each charges its own copy time to the target shim's User
// account, and the yield and the wait at the join are charged to nobody.
func drainHose(s *Shim, ctx context.Context, wv []byte, ch *channel, m *stageMetrics, st *pipelineState) error {
	rfd := s.hoseR
	if ch.kind == chanKernel {
		rfd = ch.dstFD
	}
	sw := metrics.NewStopwatch(s.now)
	striped := st.spec.striped(st.out)
	if striped {
		defer st.joinDeposits(s, m, sw)
	}
	yielded := false
	for received := 0; received < len(wv); {
		if err := CtxErr(ctx); err != nil {
			return err
		}
		chunk := min(len(wv)-received, s.hoseCap)
		if ch.kind != chanKernel {
			for moved := 0; moved < chunk; {
				n, err := s.proc.Splice(ch.dstFD, s.hoseW, chunk-moved)
				if err != nil {
					return s.resetHose(fmt.Errorf("splice in: %w", err))
				}
				moved += n
			}
			kernelT := sw.Lap()
			s.acct.CPU(metrics.Kernel, kernelT)
			m.transfer += kernelT
		}
		refs, err := s.proc.ReadRefs(rfd, chunk)
		if err != nil {
			return s.resetHose(fmt.Errorf("drain hose: %w", err))
		}
		n := pagebuf.TotalLen(refs)
		if n == 0 {
			pagebuf.ReleaseAll(refs)
			return s.resetHose(fmt.Errorf("drain hose: zero-byte read at offset %d of %d", received, len(wv)))
		}
		dst := wv[received : received+n]
		received += n
		if striped {
			st.publish(s, dst, refs)
		} else {
			s.deposit(dst, refs)
		}
		wIO := sw.Lap()
		s.acct.CPU(metrics.User, wIO)
		m.wasmIO += wIO
		if striped && !yielded {
			yielded = true
			runtime.Gosched()
			m.wasmIO += sw.Lap()
		}
	}
	return nil
}

// deposit is write_memory_host for one hose chunk of the plain loop: it
// copies the chunk's pages into dst, their place in the target's linear
// memory, releases them and charges the copy to the target shim s.
func (s *Shim) deposit(dst []byte, refs []pagebuf.Ref) {
	n := 0
	for _, ref := range refs {
		n += copy(dst[n:], ref.Bytes())
	}
	pagebuf.ReleaseAll(refs)
	s.acct.Copy(metrics.User, n)
}

// depositOne is write_memory_host for one piece of a striped drain. Either
// depositor calls it, under the target VM lock the ingress stage holds.
func (s *Shim) depositOne(job depositJob) {
	n := copy(job.dst, job.ref.Bytes())
	job.ref.Release()
	s.acct.Copy(metrics.User, n)
}

// publish offers one hose chunk — refs, bound for dst — to the caller as
// pieces of at most depositPiece bytes: each piece takes its own reference
// (Slice) and is sent by value into the deposit slot without blocking, and
// a piece that finds the slot full is deposited here. The chunk's own
// references are released once it is cut.
func (st *pipelineState) publish(s *Shim, dst []byte, refs []pagebuf.Ref) {
	for _, ref := range refs {
		for from := 0; from < ref.Len(); {
			to := min(ref.Len(), from+depositPiece)
			job := depositJob{dst: dst[:to-from], ref: ref.Slice(from, to)}
			dst = dst[to-from:]
			from = to
			st.deposits.Add(1)
			select {
			case st.depositCh <- job:
			default:
				st.deposits.Done()
				s.depositOne(job)
			}
		}
	}
	pagebuf.ReleaseAll(refs)
}

// joinDeposits settles the pieces a striped drain published, before the
// ingress stage returns on any path: it deposits what is still in the slot,
// alongside the caller, then waits for the pieces the caller claimed. The
// wait is on the transfer's critical path but is not CPU time — the caller
// charges its own copies.
func (st *pipelineState) joinDeposits(s *Shim, m *stageMetrics, sw *metrics.Stopwatch) {
	for drained := false; !drained; {
		select {
		case job := <-st.depositCh:
			if g := st.spec.gates; g != nil && g.claimed != nil {
				g.claimed(false, len(job.dst))
			}
			s.depositOne(job)
			st.deposits.Done()
		default:
			drained = true
		}
	}
	t := sw.Lap()
	s.acct.CPU(metrics.User, t)
	m.wasmIO += t
	st.deposits.Wait()
	m.wasmIO += sw.Lap()
}
