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
// socket into linear memory, no target hose and no wire — the cheapest legs
// of a fan-out. A cross-node target receives over a network channel into its
// own shim's hose as in unicast Algorithm 1. Mixed sets split naturally: one
// tee group feeds same-node sockets and cross-node connections from the same
// source pass over the source shim's hose (Function.source, the network
// egress's own source stage).
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

	// One channel per target through the unicast acquire/release helpers: a
	// connection for cross-node targets, the IPC socketpair for same-node
	// ones. Two targets inside one shim would collide on the pair's cached
	// channel, so every leg but a shim's first gets an ephemeral channel.
	chans := make([]*channel, len(dsts))
	setups := make([]time.Duration, len(dsts))
	legs := make([]*pipelineState, len(dsts))
	announced, released := false, false
	// release tears the fan-out's channels down, once. A failure before the
	// announce left every channel pristine; after it, any channel may hold
	// stranded pages.
	release := func(healthy bool) {
		if released {
			return
		}
		released = true
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
		c, setup, err := acquireTransferChannel(srcShim, dst.shim, chanKindFor(dst.shim), first[dst.shim] != i)
		if err != nil {
			return nil, nil, fmt.Errorf("multicast channel to %s: %w", dst.name, err)
		}
		chans[i], setups[i] = c, setup
		st := statePool.Get().(*pipelineState)
		st.spec = pipelineSpec{ctx: opts.Ctx, gates: opts.Gates, dst: dst, ops: networkOps{}}
		st.ch = c
		legs[i] = st
	}

	// Source stage under the source VM lock alone: locate + zero-copy view
	// (Wasm IO), the announce that dispatches every leg, then the single tee
	// pass over the source shim's hose.
	var em stageMetrics
	out, eerr := src.source(opts.Ctx, opts.SourceRef, legs, &em)
	announced = legs[0].announced
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
	// its own: the closes of ephemeral channels are part of the transfer the
	// reports account for.
	release(true)

	// The source-side cost is shared across targets: each leg's report
	// carries an equal share of the tee pass and of the source's Wasm IO as
	// its egress stage, with the source's usage attributed once, to the
	// first leg.
	srcUsage := srcShim.acct.Snapshot().Sub(beforeSrc)
	srcShare := stageMetrics{
		transfer: em.transfer / time.Duration(len(dsts)),
		wasmIO:   em.wasmIO / time.Duration(len(dsts)),
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
