package core

import (
	"context"
	"fmt"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
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
	// Flows is the number of concurrent flows sharing the link
	// (fan-out degree); values < 1 mean 1.
	Flows int
	// ForceCopyPath disables vmsplice/splice and moves the payload with
	// plain write/read syscalls — the ablation quantifying the
	// near-zero-copy win in isolation (DESIGN.md §5.1).
	ForceCopyPath bool
	// SerializeFirst re-enables the codec inside the guest before
	// transmission — the ablation quantifying the serialization-free win
	// (DESIGN.md §5.2).
	SerializeFirst bool
	// NoChannelCache forces per-call channel establishment and teardown
	// (connection + hose pipes created and closed around every transfer —
	// the pre-cache behavior, kept as the cold-path ablation). By default
	// the channel is cached and reused across transfers of the same shim
	// pair, so warm transfers issue zero connect/pipe syscalls.
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
// The control plane — connection handshake and hose pipes — is a cached
// channel (channels.go): only the first transfer between a shim pair pays
// it (reported as Breakdown.Setup), and warm transfers issue zero
// connect/pipe syscalls. Teardown moves from per-call close_all to channel
// eviction and shim Close; NoChannelCache restores the per-call behavior.
func NetworkTransfer(src, dst *Function, opts NetworkOptions) (InboundRef, metrics.TransferReport, error) {
	if src.shim == dst.shim {
		return InboundRef{}, metrics.TransferReport{}, ErrSameVM
	}
	if src.shim.Kernel() == dst.shim.Kernel() {
		return InboundRef{}, metrics.TransferReport{}, ErrSameNode
	}
	kind := chanNetwork
	chunkBytes := src.shim.hoseCap
	if opts.ForceCopyPath {
		kind = chanNetworkCopy // plain write/read needs no hose pipes
		// The copy-path ablation moves the payload as one write/read
		// exchange and gets no chunk pipelining.
		chunkBytes = 0
	}
	spec := pipelineSpec{
		mode:        "network",
		kind:        kind,
		perCall:     opts.NoChannelCache,
		phaseLocked: opts.PhaseLocked,
		ctx:         opts.Ctx,
		gates:       opts.Gates,
		src:         src,
		dst:         dst,
		link:        opts.Link,
		flows:       opts.Flows,
		chunkBytes:  chunkBytes,
		sourceRef:   opts.SourceRef,
		ops:         networkOps{},

		forceCopy:      opts.ForceCopyPath,
		serializeFirst: opts.SerializeFirst,
	}
	return runPipeline(&spec)
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

// networkOps is the network-mode stage pair; like kernelOps it is a
// zero-size stateless type, with the mode's knobs (forceCopy,
// serializeFirst) read from the spec.
type networkOps struct{}

// egress is FunctionA's side of Algorithm 1 (lines 1-13): locate the
// output region, optionally serialize (ablation), take the zero-copy view,
// then vmsplice each chunk into the data hose and splice it onward into the
// socket. Runs under the source VM lock.
func (networkOps) egress(st *pipelineState) (OutputRef, error) {
	sp := &st.spec
	f := sp.src
	s := f.shim
	ch := st.ch

	// Algorithm 1 lines 1-4: locate the output region.
	swIO := metrics.NewStopwatch(s.now)
	out, err := f.sourceOutput(sp.sourceRef)
	if err != nil {
		return OutputRef{}, err
	}
	locT := swIO.Lap()
	s.acct.CPU(metrics.User, locT)
	st.em.wasmIO += locT

	// Optional ablation: re-enable in-guest serialization.
	if sp.serializeFirst {
		swSer := metrics.NewStopwatch(s.now)
		encOut, err := f.callPacked(guest.ExportSerialize, uint64(out.Ptr), uint64(out.Len))
		if err != nil {
			return OutputRef{}, fmt.Errorf("serialize ablation: %w", err)
		}
		st.em.serialization += swSer.Lap()
		out = encOut
	}

	// read_memory_host: zero-copy view of the source region.
	swIO2 := metrics.NewStopwatch(s.now)
	view, err := f.view.ReadView(out.Ptr, out.Len)
	if err != nil {
		return OutputRef{}, err
	}
	viewT := swIO2.Lap()
	s.acct.CPU(metrics.User, viewT)
	st.em.wasmIO += viewT
	st.announce(out)

	// network_data_transfer_source (Algorithm 1 lines 6-13).
	if sp.forceCopy {
		return out, copySend(s, ch.cfd, view, &st.em)
	}
	swT := metrics.NewStopwatch(s.now)
	for off := 0; off < len(view); {
		if err := CtxErr(sp.ctx); err != nil {
			return OutputRef{}, err
		}
		chunk := len(view) - off
		if chunk > s.hoseCap {
			chunk = s.hoseCap
		}
		// vmsplice(vdh, address, length): gift the guest pages into
		// the hose without copying.
		if _, err := s.proc.Vmsplice(ch.wfd, view[off:off+chunk]); err != nil {
			return OutputRef{}, fmt.Errorf("vmsplice: %w", err)
		}
		// splice(vdh, socket, length): move page references to the
		// socket.
		for moved := 0; moved < chunk; {
			n, err := s.proc.Splice(ch.rfd, ch.cfd, chunk-moved)
			if err != nil {
				return OutputRef{}, fmt.Errorf("splice out: %w", err)
			}
			moved += n
		}
		off += chunk
	}
	sendT := swT.Lap()
	s.acct.CPU(metrics.Kernel, sendT)
	st.em.transfer += sendT
	return out, nil
}

// ingress is FunctionB's side of Algorithm 1 (lines 15-29): allocate
// target memory, splice each chunk from the socket into the target hose and
// deposit its pages into linear memory — the single unavoidable copy of the
// near-zero-copy path — then optionally deserialize (ablation). Runs under
// the target VM lock.
func (networkOps) ingress(st *pipelineState, out OutputRef) (InboundRef, error) {
	sp := &st.spec
	f := sp.dst
	s := f.shim
	ch := st.ch

	dstPtr, wv, err := ingressRegion(f, out.Len, &st.im)
	if err != nil {
		return InboundRef{}, err
	}

	// network_data_transfer_target (Algorithm 1 lines 21-29).
	if sp.forceCopy {
		if err := copyRecv(s, sp.ctx, ch.sfd, wv, &st.im); err != nil {
			return ingressAbort(f, dstPtr, err)
		}
	} else if err := drainHose(s, sp.ctx, wv, ch, &st.im, st); err != nil {
		return ingressAbort(f, dstPtr, err)
	}

	// Ablation follow-up: decode in the target guest.
	resultRef := InboundRef{Ptr: dstPtr, Len: out.Len}
	if sp.serializeFirst {
		swDe := metrics.NewStopwatch(s.now)
		decOut, err := f.callPacked(guest.ExportDeserialize, uint64(dstPtr), uint64(out.Len))
		if err != nil {
			return ingressAbort(f, dstPtr, fmt.Errorf("deserialize ablation: %w", err))
		}
		st.im.serialization += swDe.Lap()
		resultRef = InboundRef{Ptr: decOut.Ptr, Len: decOut.Len}
	}
	return resultRef, nil
}

// drainHose is the receive loop every zero-copy ingress shares
// (network_data_transfer_target, Algorithm 1 lines 21-29): per hose-sized
// chunk, splice(socket_fd, target_vdh, length) moves the page references
// from ch's socket into its target hose, then write_memory_host takes them
// off the hose and deposits them directly into wv, the target VM's linear
// memory — the single unavoidable copy of the near-zero-copy path. A
// same-node fan-out leg has no hose to splice into: its socketpair IS the
// channel, and the references come straight off the socket. Callers hold the
// target's VM lock; ctx (nil = never cancelled) is polled at every chunk
// boundary.
//
// With st — a pipeline transfer, whose caller goroutine serves deposit jobs
// at the join (awaitIngress) — the drain is striped over two depositors: the
// loop still issues every syscall, but deals each chunk it reads, whole, to
// the caller whenever the one-slot st.depositCh is free, and deposits it
// itself otherwise. The first chunk is dealt away rather than copied here,
// so both cores copy from the start; the last one never is — the loop would
// only wait for it. The VM lock this goroutine holds covers the caller's
// writes: it is not released before joinDeposits has settled every dealt
// job, on every return path, so nothing writes wv after an abort rewinds the
// target's heap. A fan-out leg passes no st and runs the plain loop.
//
// Kernel time lands in m.transfer, this goroutine's deposits in m.wasmIO
// together with its wait at the join: m.wasmIO is the stage's critical
// path, never the sum over depositors. CPU is charged per depositor — each
// charges its own copy time to the target shim's User account, and the wait
// at the join is charged to nobody.
func drainHose(s *Shim, ctx context.Context, wv []byte, ch *channel, m *stageMetrics, st *pipelineState) error {
	rfd := ch.trfd
	if ch.kind == chanKernel {
		rfd = ch.fdB
	}
	sw := metrics.NewStopwatch(s.now)
	if st != nil {
		defer st.joinDeposits(s, m, sw)
	}
	for received := 0; received < len(wv); {
		if err := CtxErr(ctx); err != nil {
			return err
		}
		chunk := min(len(wv)-received, s.hoseCap)
		if ch.kind != chanKernel {
			for moved := 0; moved < chunk; {
				n, err := s.proc.Splice(ch.sfd, ch.twfd, chunk-moved)
				if err != nil {
					return fmt.Errorf("splice in: %w", err)
				}
				moved += n
			}
			kernelT := sw.Lap()
			s.acct.CPU(metrics.Kernel, kernelT)
			m.transfer += kernelT
		}
		refs, err := s.proc.ReadRefs(rfd, chunk)
		if err != nil {
			return fmt.Errorf("drain hose: %w", err)
		}
		n := pagebuf.TotalLen(refs)
		if n == 0 {
			pagebuf.ReleaseAll(refs)
			return fmt.Errorf("drain hose: zero-byte read at offset %d of %d", received, len(wv))
		}
		dst := wv[received : received+n]
		received += n
		if st != nil && received < len(wv) && len(st.depositCh) == 0 {
			// This loop is the slot's only sender: seen empty, the send
			// cannot block.
			st.deposits.Add(1)
			st.depositCh <- depositJob{dst: dst, refs: refs}
		} else {
			s.deposit(dst, refs)
		}
		wIO := sw.Lap()
		s.acct.CPU(metrics.User, wIO)
		m.wasmIO += wIO
	}
	return nil
}

// deposit is write_memory_host for one hose chunk: it copies the chunk's
// pages into dst, their place in the target's linear memory, releases them
// and charges the copy to the target shim s. Either depositor of a striped
// drain calls it, under the target VM lock the ingress stage holds.
func (s *Shim) deposit(dst []byte, refs []pagebuf.Ref) {
	n := 0
	for _, ref := range refs {
		n += copy(dst[n:], ref.Bytes())
	}
	pagebuf.ReleaseAll(refs)
	s.acct.Copy(metrics.User, n)
}

// joinDeposits settles the jobs a striped drain dealt, before the ingress
// stage returns on any path: a job still in the slot is taken back and
// deposited here, a claimed one is waited for. The wait is on the transfer's
// critical path but is not CPU time — the caller charges its own copies.
func (st *pipelineState) joinDeposits(s *Shim, m *stageMetrics, sw *metrics.Stopwatch) {
	select {
	case job := <-st.depositCh:
		s.deposit(job.dst, job.refs)
		st.deposits.Done()
		t := sw.Lap()
		s.acct.CPU(metrics.User, t)
		m.wasmIO += t
	default:
	}
	st.deposits.Wait()
	m.wasmIO += sw.Lap()
}
