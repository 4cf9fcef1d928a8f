package core

import (
	"context"
	"fmt"

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

// LegError is a multicast failure that one leg caused first: Leg indexes
// the target whose channel or drain failed. A failure of the source stage
// is returned as it is, naming no leg.
type LegError struct {
	Leg int
	Err error
}

// Error returns the leg's error text.
func (e *LegError) Error() string { return e.Err.Error() }

// Unwrap returns the leg's error.
func (e *LegError) Unwrap() error { return e.Err }

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
// source pass over the source shim's hose.
//
// The fan-out is runPipeline with N legs, each a unicast leg's spec, run
// with the network stage pair: the source VM is locked only for the tee
// pass, whose announce dispatches every leg onto a stage worker, and each
// leg drains its own channel under its own VM lock, all legs in parallel,
// overlapping the source pass; the caller, joining the legs in order, is
// the second depositor of the leg it joins. Locking, channels, the failure
// rules and the reports are runPipeline's. A failure a leg caused first is
// a *LegError naming it; any failure hands back the legs that landed.
func MulticastTransfer(src *Function, dsts []*Function, opts MulticastOptions) ([]InboundRef, []metrics.TransferReport, error) {
	if len(dsts) == 0 {
		return nil, nil, fmt.Errorf("core: multicast requires targets")
	}
	// Each cross-node leg is charged the link shared by all of them.
	remote := 0
	for _, dst := range dsts {
		if dst.shim == src.shim {
			return nil, nil, ErrSameVM
		}
		if dst.shim.Kernel() != src.shim.Kernel() {
			remote++
		}
	}
	legs := make([]*pipelineState, len(dsts))
	for i, dst := range dsts {
		st := statePool.Get().(*pipelineState)
		st.spec = pipelineSpec{
			mode: "kernel-multicast", kind: chanKernel, ctx: opts.Ctx, gates: opts.Gates,
			src: src, dst: dst, chunkBytes: src.shim.hoseCap, sourceRef: opts.SourceRef,
		}
		if dst.shim.Kernel() != src.shim.Kernel() {
			st.spec.mode, st.spec.kind = "network-multicast", chanNetwork
			st.spec.link, st.spec.flows = opts.Link, remote
		}
		legs[i] = st
	}
	refs := make([]InboundRef, len(dsts))
	reports := make([]metrics.TransferReport, len(dsts))
	leg, err := runPipeline(networkOps{}, legs, refs, reports)
	for _, st := range legs {
		putPipelineState(st)
	}
	if err != nil {
		if leg >= 0 {
			err = &LegError{Leg: leg, Err: fmt.Errorf("multicast to %s: %w", dsts[leg].name, err)}
		}
		return nil, nil, err
	}
	return refs, reports, nil
}
