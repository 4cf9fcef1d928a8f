package core

import (
	"context"
	"fmt"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
)

// MulticastOptions tunes a multicast transfer.
type MulticastOptions struct {
	// Ctx cancels the fan-out; nil means never cancelled. Cancellation is
	// observed at entry, at every chunk of the source tee pass, and at the
	// start and every chunk of each target drain; an aborted fan-out
	// destroys its channels (draining stranded pages) like other failures.
	Ctx context.Context
	// Link is the modeled network path every cross-node target is reached
	// over; nil attributes no wire time. Each cross-node leg is charged the
	// link shared by all of the cast's cross-node legs; same-node legs never
	// cross it.
	Link *netsim.Link
	// SourceRef pins the source region (see UserOptions.SourceRef).
	SourceRef *OutputRef
	// Gates carries test instrumentation (see PipelineGates); BeforeIngress
	// runs once per target drain.
	Gates *PipelineGates
}

// MulticastTransfer delivers the source's output to several targets from a
// single pass over the virtual data hose — an extension of Algorithm 1 for
// the paper's fan-out pattern (§6.4). Instead of re-running the source
// pipeline per target, each hose chunk is vmspliced once and then
// tee(2)-duplicated into every target's channel (the last target takes the
// pages by splice): page references are shared, so the source side performs
// zero payload copies regardless of fan-out degree.
//
// Targets may live anywhere except inside the source's own VM. A target
// co-located on the source's node receives through the same-node socketpair
// channel (§4.2): its drain pops the teed page references straight off its
// socket into linear memory, no hose pipes and no wire — the cheapest legs
// of a fan-out. A cross-node target receives over the network channel's
// target hose as in unicast Algorithm 1. Mixed sets split naturally: one
// tee group feeds same-node sockets and cross-node connections from the same
// source pass. The tee pass runs over the first cross-node channel's source
// hose; an all-local fan-out creates a per-call hose pipe instead, closed
// (and drained) by the transfer itself.
//
// The fan-out is the staged pipeline of pipeline.go with one egress and N
// ingress stages: the source VM is locked only for the tee pass, whose
// announce dispatches every target's leg (networkOps' ingress) onto a stage
// worker, and each leg drains its own channel under its own VM lock, all legs
// in parallel, overlapping the source pass. A source that fails before
// announcing dispatched no leg and leaves every channel pristine and warm;
// once legs run, any failure destroys all channels and the join reports the
// stage that failed first, as runPipeline does.
func MulticastTransfer(src *Function, dsts []*Function, opts MulticastOptions) ([]InboundRef, []metrics.TransferReport, error) {
	if len(dsts) == 0 {
		return nil, nil, fmt.Errorf("core: multicast requires targets")
	}
	srcShim := src.shim
	dstShims := make([]*Shim, len(dsts))
	for i, dst := range dsts {
		if dst.shim == srcShim {
			return nil, nil, ErrSameVM
		}
		dstShims[i] = dst.shim
	}
	chanKindFor := func(ds *Shim) chanKind {
		if ds.Kernel() == srcShim.Kernel() {
			return chanKernel
		}
		return chanNetwork
	}

	// Pair locks, one per distinct target shim — the socketpair kind for
	// co-located shims, the network kind otherwise, matching the locks the
	// unicast paths take so a fan-out leg serializes with unicast transfers
	// of the same pair — acquired in ascending shim creation order
	// (distinctBySeq), which keeps overlapping multicasts from one source
	// deadlock-free. They are taken before any VM lock, per the pipeline's
	// lock order.
	for _, ds := range distinctBySeq(dstShims) {
		m := srcShim.pairLock(ds, chanKindFor(ds))
		m.Lock()
		defer m.Unlock()
	}
	// First cancellation point: abort before acquiring channels or VM locks.
	if err := CtxErr(opts.Ctx); err != nil {
		return nil, nil, err
	}
	// Usage is snapshotted once per distinct target shim, and a shim's delta
	// is reported with its first leg (first maps each shim to that leg), as
	// the source's is with leg 0: a VM holding two legs is counted once.
	beforeSrc := srcShim.acct.Snapshot()
	beforeDst := make([]metrics.Usage, len(dsts))
	first := make(map[*Shim]int, len(dsts))
	for i, ds := range dstShims {
		if _, ok := first[ds]; !ok {
			first[ds] = i
			beforeDst[i] = ds.acct.Snapshot()
		}
	}

	// One channel per target through the unicast acquire/release helpers:
	// connection + target hose for cross-node targets, the IPC socketpair
	// for same-node ones. Two targets inside one shim would collide on the
	// pair's cached channel, so every leg but a shim's first gets an
	// ephemeral channel. The first cross-node channel's source hose doubles
	// as the shared multicast hose.
	chans := make([]*channel, len(dsts))
	setups := make([]time.Duration, len(dsts))
	legs := make([]*pipelineState, len(dsts))
	announced, released := false, false
	hoseR, hoseW := -1, -1
	ownHose := false
	// release tears the fan-out's channels down, once. The per-call hose
	// always closes — control-plane closes are never fault-intercepted, and
	// closing the read end drains any pages a failed tee pass stranded back
	// to their pool. A failure before the announce left every channel
	// pristine; after it, any channel may hold stranded pages.
	release := func(healthy bool) {
		if released {
			return
		}
		released = true
		if ownHose {
			_ = srcShim.proc.Close(hoseW)
			_ = srcShim.proc.Close(hoseR)
		}
		for _, c := range chans {
			if c != nil {
				releaseTransferChannel(c, !c.cached, healthy)
			}
		}
	}
	defer func() {
		// Every dispatched leg has been joined by now.
		for _, st := range legs {
			if st != nil {
				putPipelineState(st)
			}
		}
		release(!announced)
	}()
	for i, dst := range dsts {
		kind := chanKindFor(dst.shim)
		ephemeral := first[dst.shim] != i
		if ephemeral && kind == chanNetwork && hoseR >= 0 {
			// An ephemeral leg into a remote shim skips the source hose:
			// the first cross-node channel already supplies the fan-out's
			// shared tee hose, so the leg needs only a connection and a
			// target hose.
			kind = chanNetworkTarget
		}
		c, setup, err := acquireTransferChannel(srcShim, dst.shim, kind, ephemeral)
		if err != nil {
			return nil, nil, fmt.Errorf("multicast channel to %s: %w", dst.name, err)
		}
		chans[i], setups[i] = c, setup
		if hoseR < 0 && c.kind == chanNetwork {
			hoseR, hoseW = c.rfd, c.wfd
		}
	}
	if hoseR < 0 {
		// All targets are same-node: no network channel supplies a source
		// hose, so the tee pass runs over a per-call pipe owned (and always
		// closed) by this transfer — see the deferred teardown above. Its
		// establishment is charged once, and reported with the first leg.
		sw := metrics.NewStopwatch(srcShim.now)
		hoseR, hoseW = srcShim.proc.PipeSized(srcShim.hoseCap)
		ownHose = true
		lap := sw.Lap()
		srcShim.acct.CPU(metrics.Kernel, lap)
		setups[0] += lap
	}
	for i, dst := range dsts {
		st := statePool.Get().(*pipelineState)
		st.spec = pipelineSpec{ctx: opts.Ctx, gates: opts.Gates, dst: dst, ops: networkOps{}}
		st.ch = chans[i]
		legs[i] = st
	}

	// Source stage under the source VM lock alone: locate + zero-copy view
	// (Wasm IO), the announce that dispatches every leg, then the single tee
	// pass over the shared hose.
	var (
		out       OutputRef
		srcWasmIO time.Duration
		sendT     time.Duration
	)
	outFD := func(c *channel) int {
		if c.kind == chanKernel {
			return c.fdA
		}
		return c.cfd
	}
	srcShim.mu.Lock()
	eerr := func() error {
		swIO := metrics.NewStopwatch(srcShim.now)
		o, err := src.sourceOutput(opts.SourceRef)
		if err != nil {
			return err
		}
		view, err := src.view.ReadView(o.Ptr, o.Len)
		if err != nil {
			return err
		}
		out = o
		srcWasmIO = swIO.Lap()
		srcShim.acct.CPU(metrics.User, srcWasmIO)
		for _, st := range legs {
			st.announce(out) // legs drain while the chunks below still flow
		}
		announced = true

		// Single hose, chunk-by-chunk: tee to all but the last target,
		// splice to the last.
		swT := metrics.NewStopwatch(srcShim.now)
		last := len(dsts) - 1
		for off := 0; off < len(view); {
			if err := CtxErr(opts.Ctx); err != nil {
				return err
			}
			chunk := min(len(view)-off, srcShim.hoseCap)
			if _, err := srcShim.proc.Vmsplice(hoseW, view[off:off+chunk]); err != nil {
				return fmt.Errorf("multicast vmsplice: %w", err)
			}
			for i, c := range chans[:last] {
				// tee(2) does not consume the pipe, so one call covers the
				// whole (fully queued) chunk; a short clone would duplicate
				// its prefix again and must be treated as a fault.
				n, err := srcShim.proc.Tee(hoseR, outFD(c), chunk)
				if err != nil {
					return fmt.Errorf("multicast tee to %s: %w", dsts[i].name, err)
				}
				if n != chunk {
					return fmt.Errorf("multicast tee to %s: short clone %d of %d", dsts[i].name, n, chunk)
				}
			}
			for moved := 0; moved < chunk; {
				n, err := srcShim.proc.Splice(hoseR, outFD(chans[last]), chunk-moved)
				if err != nil {
					return fmt.Errorf("multicast splice to %s: %w", dsts[last].name, err)
				}
				moved += n
			}
			off += chunk
		}
		sendT = swT.Lap()
		srcShim.acct.CPU(metrics.Kernel, sendT)
		return nil
	}()
	srcShim.mu.Unlock()
	if !announced {
		return nil, nil, eerr
	}
	// A failing leg destroys its channel, which fails the tee pass with a
	// symptom (bad descriptor, broken pipe): a leg whose failure was flagged
	// before the egress failed has the cause.
	cause := -1
	if eerr != nil {
		for i, st := range legs {
			if st.ingressFailed.Load() {
				cause = i
				break
			}
		}
		// Legs may be blocked on channels that will never fill; poisoning
		// the channels unblocks them (the deferred release destroys them
		// again — destroy is idempotent).
		for _, c := range chans {
			c.destroy()
		}
	}
	// The join: without a source failure the first failed leg reports.
	refs := make([]InboundRef, len(dsts))
	var legErr error
	for i, st := range legs {
		ires := st.awaitIngress()
		refs[i] = ires.ref
		if ires.err != nil && legErr == nil && (eerr == nil || i == cause) {
			legErr = fmt.Errorf("multicast receive at %s: %w", dsts[i].name, ires.err)
		}
	}
	if legErr != nil {
		eerr = legErr
	}
	if eerr != nil {
		return nil, nil, releaseLanded(dsts, refs, eerr)
	}

	// Tear down before the usage snapshot, as runPipeline releases before
	// its own: the closes of the per-call hose and of ephemeral channels are
	// part of the transfer the reports account for.
	release(true)

	// The source-side cost is shared across targets: each leg's report
	// carries an equal share of the tee pass and of the source's Wasm IO as
	// its egress stage, with the source's usage attributed once, to the
	// first leg.
	srcUsage := srcShim.acct.Snapshot().Sub(beforeSrc)
	srcShare := stageMetrics{
		transfer: sendT / time.Duration(len(dsts)),
		wasmIO:   srcWasmIO / time.Duration(len(dsts)),
	}
	remote := 0
	for _, c := range chans {
		if c.kind != chanKernel {
			remote++
		}
	}
	reports := make([]metrics.TransferReport, len(dsts))
	for i, st := range legs {
		sp := &st.spec
		sp.src, sp.mode = src, "kernel-multicast"
		if chans[i].kind != chanKernel {
			sp.mode = "network-multicast"
			sp.link, sp.flows = opts.Link, remote
		}
		// Legs deal no chunks to the caller, so the pipeline depth is set
		// only now, for the overlap credit: the shared tee pass feeds each
		// target's wire and drain chunk by chunk.
		sp.chunkBytes = srcShim.hoseCap
		var usage metrics.Usage
		if ds := dsts[i].shim; first[ds] == i {
			usage = ds.acct.Snapshot().Sub(beforeDst[i])
		}
		if i == 0 {
			usage = usage.Add(srcUsage) // attribute source work once
		}
		reports[i] = assembleReport(sp, out, setups[i], srcShare, st.im, usage)
	}
	return refs, reports, nil
}

// releaseLanded hands back the legs that landed before a fan-out failed with
// err, so an aborted (e.g. cancelled) multicast doesn't strand regions in the
// fast targets' heaps; a failed leg's ref is zero, its ingress already
// rewound. Each release runs under its target's VM lock. It returns err.
func releaseLanded(dsts []*Function, refs []InboundRef, err error) error {
	for i, ref := range refs {
		if ref.Ptr != 0 {
			ds := dsts[i].shim
			ds.mu.Lock()
			_ = dsts[i].view.Deallocate(ref.Ptr)
			ds.mu.Unlock()
		}
	}
	return err
}
