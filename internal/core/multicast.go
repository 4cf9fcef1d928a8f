package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
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
	// Links models the network path per target; a nil slice (or nil entry)
	// attributes no wire time — same-node targets always get a nil entry.
	// When set, len(Links) must equal the number of targets. Targets on
	// different links are modeled independently — a slow edge uplink no
	// longer taxes targets reached over a fast one.
	Links []*netsim.Link
	// Flows overrides, per target, the number of concurrent flows sharing
	// that target's link. Entries <= 0 (or a nil slice) default to the
	// number of multicast targets whose Links entry is the same link.
	// When set, len(Flows) must equal the number of targets.
	Flows []int
	// NoChannelCache forces per-call channel establishment and teardown
	// (the cold-path ablation), as in NetworkOptions.
	NoChannelCache bool
	// SourceRef pins the source region (see UserOptions.SourceRef).
	SourceRef *OutputRef
	// Gates carries test instrumentation (see PipelineGates); BeforeIngress
	// runs once per target drain.
	Gates *PipelineGates
}

// errEgressAborted is a multicast target stage's result when the source pass
// failed before announcing the payload size; the source's error is the one
// reported.
var errEgressAborted = errors.New("core: source stage aborted before announcing output")

// multicastDrain is one target stage's outcome.
type multicastDrain struct {
	ref InboundRef
	m   stageMetrics
	err error
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
// tee group feeds same-node sockets and per-link connections from the same
// source pass. The tee pass runs over the first cross-node channel's source
// hose; an all-local fan-out creates a per-call hose pipe instead, closed
// (and drained) by the transfer itself.
//
// Like the unicast paths, the fan-out runs as a staged pipeline: the source
// VM is locked only for the tee pass, and each target drains its own
// channel under its own VM lock, all targets in parallel, overlapping the
// source pass.
func MulticastTransfer(src *Function, dsts []*Function, opts MulticastOptions) ([]InboundRef, []metrics.TransferReport, error) {
	if len(dsts) == 0 {
		return nil, nil, fmt.Errorf("core: multicast requires targets")
	}
	if opts.Links != nil && len(opts.Links) != len(dsts) {
		return nil, nil, fmt.Errorf("core: multicast got %d links for %d targets", len(opts.Links), len(dsts))
	}
	if opts.Flows != nil && len(opts.Flows) != len(dsts) {
		return nil, nil, fmt.Errorf("core: multicast got %d flow counts for %d targets", len(opts.Flows), len(dsts))
	}
	srcShim := src.shim
	local := make([]bool, len(dsts))
	for i, dst := range dsts {
		if dst.shim == srcShim {
			return nil, nil, ErrSameVM
		}
		local[i] = dst.shim.Kernel() == srcShim.Kernel()
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
	dstShims := make([]*Shim, len(dsts))
	for i, dst := range dsts {
		dstShims[i] = dst.shim
	}
	for _, ds := range distinctBySeq(dstShims) {
		m := srcShim.pairLock(ds, chanKindFor(ds))
		m.Lock()
		defer m.Unlock()
	}
	// First cancellation point: abort before acquiring channels or VM locks.
	if err := CtxErr(opts.Ctx); err != nil {
		return nil, nil, err
	}
	beforeSrc := srcShim.acct.Snapshot()
	beforeDst := make([]metrics.Usage, len(dsts))
	for i, dst := range dsts {
		beforeDst[i] = dst.shim.acct.Snapshot()
	}

	// One channel per target, cached per shim pair like the unicast paths:
	// connection + target hose for cross-node targets, the IPC socketpair
	// for same-node ones. Two targets inside one shim would collide on the
	// pair's cached channel, so duplicates of an already acquired shim fall
	// back to per-call channels. The first cross-node channel's source hose
	// doubles as the shared multicast hose.
	swSetup := metrics.NewStopwatch(srcShim.now)
	chans := make([]*channel, len(dsts))
	setups := make([]time.Duration, len(dsts))
	seen := make(map[*Shim]bool, len(dsts))
	healthy := false
	dataStarted := false
	hoseR, hoseW := -1, -1
	ownHose := false
	defer func() {
		if ownHose {
			// The per-call hose always tears down — control-plane closes are
			// never fault-intercepted, and closing the read end drains any
			// pages a failed tee pass stranded back to their pool.
			_ = srcShim.proc.Close(hoseW)
			_ = srcShim.proc.Close(hoseR)
		}
		for _, c := range chans {
			if c == nil {
				continue
			}
			c.unpin()
			// Ephemeral (per-call or duplicate-shim) channels always tear
			// down. Cached ones are destroyed only when the transfer failed
			// after payload started moving — then any channel may hold
			// stranded pages; failures before the first vmsplice leave all
			// channels pristine and warm.
			if !c.cached || (!healthy && dataStarted) {
				c.destroy()
			}
		}
	}()
	for i, dst := range dsts {
		var hit bool
		var err error
		kind := chanKindFor(dst.shim)
		if opts.NoChannelCache || seen[dst.shim] {
			// Ephemeral channels skip the source hose except for the first
			// cross-node one, which supplies the fan-out's shared tee hose —
			// per-call multicast then issues exactly the pre-cache trace:
			// one source hose plus connection + target hose per target.
			if kind == chanNetwork && hoseR >= 0 {
				kind = chanNetworkTarget
			}
			chans[i], err = establishChannel(srcShim, dst.shim, kind)
		} else {
			// acquireChannel returns the channel pinned, shielding it from
			// eviction by this fan-out's own later acquisitions (and by
			// concurrent transfers of other pairs) until the deferred unpin.
			chans[i], hit, err = srcShim.acquireChannel(dst.shim, kind)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("multicast channel to %s: %w", dst.name, err)
		}
		seen[dst.shim] = true
		if hoseR < 0 && chans[i].kind == chanNetwork {
			hoseR, hoseW = chans[i].rfd, chans[i].wfd
		}
		if !hit {
			setups[i] = swSetup.Lap()
		} else {
			swSetup.Lap()
		}
	}
	if hoseR < 0 {
		// All targets are same-node: no network channel supplies a source
		// hose, so the tee pass runs over a per-call pipe owned (and always
		// closed) by this transfer — see the deferred teardown above.
		hoseR, hoseW = srcShim.proc.PipeSized(srcShim.hoseCap)
		ownHose = true
		setups[0] += swSetup.Lap()
	}
	var setupTotal time.Duration
	for _, d := range setups {
		setupTotal += d
	}
	srcShim.acct.CPU(metrics.Kernel, setupTotal)

	// Target stages: spawned before the source pass so the drains overlap
	// it, each waiting for the announced output size. Targets sharing a
	// shim serialize naturally on its VM lock. Same-node targets drain their
	// socketpair end directly; cross-node ones run the Algorithm 1 ingress
	// over their target hose.
	var (
		out       OutputRef
		srcWasmIO time.Duration
		sendT     time.Duration
		announced bool
	)
	ready := make(chan struct{})
	drains := make([]multicastDrain, len(dsts))
	var wg sync.WaitGroup
	for i, dst := range dsts {
		wg.Add(1)
		go func(i int, dst *Function) {
			defer wg.Done()
			<-ready
			if !announced {
				drains[i].err = errEgressAborted
				return
			}
			if opts.Gates != nil && opts.Gates.BeforeIngress != nil {
				opts.Gates.BeforeIngress()
			}
			// Stage-boundary cancellation point: this target's share of the
			// payload is on the wire, no VM lock held.
			if err := CtxErr(opts.Ctx); err != nil {
				drains[i].err = err
				return
			}
			ds := dst.shim
			ds.mu.Lock()
			drains[i].ref, drains[i].m, drains[i].err = receiveLeg(dst, chans[i], out.Len, opts.Ctx)
			ds.mu.Unlock()
		}(i, dst)
	}

	// Source stage under the source VM lock alone: locate + zero-copy view
	// (Wasm IO), then the single tee pass over the shared hose.
	srcShim.mu.Lock()
	outFD := func(i int) int {
		if local[i] {
			return chans[i].fdA
		}
		return chans[i].cfd
	}
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
		announced = true
		close(ready) // drains start while the chunks below are still flowing

		// Single hose, chunk-by-chunk: tee to all but the last target,
		// splice to the last.
		swT := metrics.NewStopwatch(srcShim.now)
		dataStarted = true
		for off := 0; off < len(view); {
			if err := CtxErr(opts.Ctx); err != nil {
				return err
			}
			chunk := len(view) - off
			if chunk > srcShim.hoseCap {
				chunk = srcShim.hoseCap
			}
			if _, err := srcShim.proc.Vmsplice(hoseW, view[off:off+chunk]); err != nil {
				return fmt.Errorf("multicast vmsplice: %w", err)
			}
			for i := 0; i < len(dsts)-1; i++ {
				// tee(2) does not consume the pipe, so one call covers the
				// whole (fully queued) chunk; a short clone would duplicate
				// its prefix again and must be treated as a fault.
				n, err := srcShim.proc.Tee(hoseR, outFD(i), chunk)
				if err != nil {
					return fmt.Errorf("multicast tee to %s: %w", dsts[i].name, err)
				}
				if n != chunk {
					return fmt.Errorf("multicast tee to %s: short clone %d of %d", dsts[i].name, n, chunk)
				}
			}
			last := len(dsts) - 1
			for moved := 0; moved < chunk; {
				n, err := srcShim.proc.Splice(hoseR, outFD(last), chunk-moved)
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
		close(ready)
	}
	// releaseLanded hands back deliveries that completed before the fan-out
	// failed, so an aborted (e.g. cancelled) multicast doesn't strand
	// regions in the fast targets' heaps. Descending-pointer order releases
	// duplicate targets of one VM LIFO, each under its own VM lock.
	releaseLanded := func() {
		idx := make([]int, 0, len(drains))
		for i := range drains {
			if drains[i].err == nil && drains[i].ref.Len > 0 {
				idx = append(idx, i)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return drains[idx[a]].ref.Ptr > drains[idx[b]].ref.Ptr })
		for _, i := range idx {
			ds := dsts[i].shim
			ds.mu.Lock()
			_ = dsts[i].view.Deallocate(drains[i].ref.Ptr)
			ds.mu.Unlock()
		}
	}
	if eerr != nil {
		if dataStarted {
			// Some drains may be blocked on sockets that will never fill;
			// poisoning the channels unblocks them (the deferred cleanup
			// destroys them again — destroy is idempotent).
			for _, c := range chans {
				if c != nil {
					c.destroy()
				}
			}
		}
		wg.Wait()
		releaseLanded()
		return nil, nil, eerr
	}

	wg.Wait()
	for i, d := range drains {
		if d.err != nil {
			releaseLanded()
			return nil, nil, fmt.Errorf("multicast receive at %s: %w", dsts[i].name, d.err)
		}
	}

	srcUsage := srcShim.acct.Snapshot().Sub(beforeSrc)
	// The source-side cost is shared across targets.
	perTargetSend := sendT / time.Duration(len(dsts))
	linkShare := make(map[*netsim.Link]int, len(dsts))
	if opts.Links != nil {
		for _, l := range opts.Links {
			linkShare[l]++
		}
	}

	refs := make([]InboundRef, len(dsts))
	reports := make([]metrics.TransferReport, len(dsts))
	for i, dst := range dsts {
		refs[i] = drains[i].ref
		usage := dst.shim.acct.Snapshot().Sub(beforeDst[i])
		if i == 0 {
			usage = usage.Add(srcUsage) // attribute source work once
		}
		dm := drains[i].m
		bd := metrics.Breakdown{
			Setup:    setups[i],
			Transfer: dm.transfer + perTargetSend + srcShim.Kernel().SyscallTime(usage.Syscalls),
			WasmIO:   dm.wasmIO + srcWasmIO/time.Duration(len(dsts)),
		}
		if opts.Links != nil && opts.Links[i] != nil {
			flows := 0
			if opts.Flows != nil {
				flows = opts.Flows[i]
			}
			if flows <= 0 {
				flows = linkShare[opts.Links[i]]
			}
			bd.Network = opts.Links[i].TransferTime(int64(out.Len), flows)
		}
		// Per-target chunk pipeline: the source's shared tee pass feeds this
		// target's wire and drain chunk by chunk.
		srcShare := perTargetSend + srcWasmIO/time.Duration(len(dsts))
		bd.Overlap = modeledOverlap(hoseChunks(out, srcShim.hoseCap), srcShare, bd.Network, dm.activity())
		mode := "network-multicast"
		if local[i] {
			mode = "kernel-multicast"
		}
		reports[i] = metrics.TransferReport{
			Bytes:     int64(out.Len),
			Breakdown: bd,
			Usage:     usage,
			Mode:      mode,
		}
	}
	healthy = true
	return refs, reports, nil
}

// receiveLeg runs one target's ingress of a fan-out over ch. A cross-node
// leg is the target half of Algorithm 1: socket → target hose → linear
// memory. A same-node leg pops the teed page references straight off its
// socketpair end (the socketpair IS the channel — no target hose) into
// linear memory, the single user-space copy the kernel path allows. Callers
// hold the target's VM lock. Descriptors stay open — teardown belongs to the
// channel's lifecycle, not the transfer. ctx (nil = never cancelled) is
// polled at every chunk boundary.
func receiveLeg(dst *Function, ch *channel, n uint32, ctx context.Context) (InboundRef, stageMetrics, error) {
	var m stageMetrics
	dstPtr, wv, err := ingressRegion(dst, n, &m)
	if err != nil {
		return InboundRef{}, m, err
	}
	if err := drainHose(dst.shim, ctx, wv, ch, &m, nil); err != nil {
		ref, err := ingressAbort(dst, dstPtr, err)
		return ref, m, err
	}
	return InboundRef{Ptr: dstPtr, Len: n}, m, nil
}
