package roadrunner

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/core"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
)

// Name returns the function name.
func (f *Function) Name() string { return f.name }

// Node returns the node the function's first instance is placed on; see
// Instances for the full pool spread.
func (f *Function) Node() string { return f.insts[0].node }

// Workflow returns the function's trusted context.
func (f *Function) Workflow() Workflow { return f.workflow }

// Replicas reports the size of the function's instance pool.
func (f *Function) Replicas() int { return len(f.insts) }

// Instances returns the function's replica pool in index order.
func (f *Function) Instances() []*Instance {
	out := make([]*Instance, len(f.insts))
	copy(out, f.insts)
	return out
}

// Instance returns replica i — the explicit escape hatch for tests and
// instance-affine callers — or nil when i is out of range.
func (f *Function) Instance(i int) *Instance {
	if i < 0 || i >= len(f.insts) {
		return nil
	}
	return f.insts[i]
}

// ActiveInstance returns the instance holding the function's current
// output: the last instance a routed produce, call or delivery landed on.
func (f *Function) ActiveInstance() *Instance {
	f.activeMu.Lock()
	defer f.activeMu.Unlock()
	return f.active
}

// setActive records inst as the holder of the function's current output.
func (f *Function) setActive(inst *Instance) {
	f.activeMu.Lock()
	f.active = inst
	f.activeMu.Unlock()
}

// pickInstance routes a peerless invocation (produce, a direct call) to an
// instance via the platform's placement policy; it fails with
// ErrNoHealthyInstance when the health FSM has excluded the whole pool.
func (f *Function) pickInstance() (*Instance, error) {
	return f.pickInstanceExcluding(nil)
}

// pickInstanceExcluding is pickInstance with a retry-with-exclusion set:
// replicas in excluded are skipped even when the health FSM still admits
// them, so a produce re-route never lands on the replica that just faulted.
func (f *Function) pickInstanceExcluding(excluded map[*Instance]bool) (*Instance, error) {
	var eligible func(int) bool
	if len(excluded) > 0 {
		eligible = func(i int) bool { return !excluded[f.insts[i]] }
	}
	i := f.platform.place.PickOne(f.route, f.eps, eligible)
	if i < 0 {
		return nil, fmt.Errorf("%s: %w", f.name, ErrNoHealthyInstance)
	}
	return f.insts[i], nil
}

// ColdStart reports the accumulated sandbox + VM initialization time across
// the pool's distinct shims.
func (f *Function) ColdStart() time.Duration {
	var total time.Duration
	seen := make(map[*core.Shim]bool, len(f.insts))
	for _, inst := range f.insts {
		if s := inst.inner.Shim(); !seen[s] {
			seen[s] = true
			total += s.ColdStart()
		}
	}
	return total
}

// SharesVMWith reports whether the two functions' first instances live in
// the same Wasm VM (and therefore qualify for user-space transfers); use
// Instance handles to test specific replica pairs.
func (f *Function) SharesVMWith(o *Function) bool {
	return f.insts[0].inner.Shim() == o.insts[0].inner.Shim()
}

// Produce runs the guest payload generator on a policy-routed instance,
// making an n-byte deterministic payload the function's current output.
func (f *Function) Produce(n int) error {
	_, _, err := f.platform.produceRouted(f, n)
	return err
}

// Output returns the active instance's current output region.
func (f *Function) Output() (DataRef, error) {
	if err := f.platform.beginOp(); err != nil {
		return DataRef{}, err
	}
	defer f.platform.endOp()
	out, err := f.ActiveInstance().inner.Output()
	if err != nil {
		return DataRef{}, err
	}
	return DataRef{Ptr: out.Ptr, Len: out.Len}, nil
}

// SetOutput registers delivered data in the active instance as the
// function's output, enabling the next hop of a chained workflow.
func (f *Function) SetOutput(ref DataRef) error {
	if err := f.platform.beginOp(); err != nil {
		return err
	}
	defer f.platform.endOp()
	return f.ActiveInstance().setOutput(ref)
}

// Checksum digests a delivered region inside the active instance's guest;
// it matches ExpectedChecksum for payloads created by Produce.
func (f *Function) Checksum(ref DataRef) (uint64, error) {
	if err := f.platform.beginOp(); err != nil {
		return 0, err
	}
	defer f.platform.endOp()
	return f.ActiveInstance().checksum(ref)
}

// Release returns delivered data to the active instance's guest allocator
// (deallocate_memory), rewinding the bump heap when the region is the most
// recent live allocation. Long-running functions release inbound payloads
// between invocations to keep linear memory bounded.
func (f *Function) Release(ref DataRef) error {
	if err := f.platform.beginOp(); err != nil {
		return err
	}
	defer f.platform.endOp()
	return f.ActiveInstance().inner.Deallocate(ref.Ptr)
}

// Call invokes any guest export on a policy-routed instance (see
// internal/guest for the canonical module's surface).
func (f *Function) Call(export string, args ...uint64) ([]uint64, error) {
	if err := f.platform.beginOp(); err != nil {
		return nil, err
	}
	defer f.platform.endOp()
	inst, err := f.pickInstance()
	if err != nil {
		return nil, err
	}
	f.route.Enter(inst.index)
	defer f.route.Exit(inst.index)
	res, err := inst.inner.Call(export, args...)
	if err == nil {
		f.setActive(inst)
	}
	return res, err
}

// ResizeHalf runs the guest's 2×2 box-filter downsample over a delivered
// grayscale image in the active instance, returning the output region.
func (f *Function) ResizeHalf(ref DataRef, w, h int) (DataRef, error) {
	if err := f.platform.beginOp(); err != nil {
		return DataRef{}, err
	}
	defer f.platform.endOp()
	return f.ActiveInstance().resizeHalf(ref, w, h)
}

// ExpectedChecksum returns the digest Checksum yields for an n-byte payload
// created by Produce — the end-to-end integrity oracle used by the examples
// and tests.
func ExpectedChecksum(n int) uint64 {
	return guest.ReferenceProduceChecksum(n)
}

// ChainCtx produces an n-byte payload at the first function and forwards it
// hop by hop through the rest (the sequential invocation pattern of §6.1),
// selecting the transfer mode per hop by locality; opts apply to every hop
// (e.g. WithPhaseLocked for the phase-locked ablation regime). Every hop's
// endpoint instances are routed by the placement policy — instance pins in
// opts are ignored: a chain's source instance is always the previous hop's
// delivery. It returns the merged report and the final delivery.
//
// Chains stream: every hop pins its input region explicitly (WithSourceRef),
// so the set_output + locate step runs atomically inside the hop's source
// stage, hop i+1's egress starts as soon as hop i's ingress lands, and at
// any moment a hop holds only the VM lock of the side actually touching
// bytes. Interior VMs are therefore free between their stages — free to
// serve other chains or unrelated transfers — instead of sitting
// locked-idle for whole hops as in the phase-locked regime.
//
// A failing hop is named in the error: "hop i/h (src->dst)" with the hop's
// 1-based index, total hop count and concrete instance names. Cancellation
// of ctx is observed between hops and inside each hop's pipeline stages. A
// cancelled (or otherwise failed) chain releases every region it allocated
// — the head's produced payload and each interior hop's delivery — back to
// the owning guests' allocators, so an aborted chain leaves linear memory,
// FD tables, the page pool and the channel cache at their pre-chain
// baselines. It is the one-shot form of a Plan's Hop node (DESIGN.md §7).
func (p *Platform) ChainCtx(ctx context.Context, n int, fns []*Function, opts ...TransferOption) (DataRef, Report, error) {
	node := PlanNode{op: opHop, fns: fns, bytes: n, opts: opts, label: "hop#0"}
	if err := node.admit(ctx, p); err != nil {
		return DataRef{}, Report{}, err
	}
	ref, rep, _, err := p.chainWithCtx(ctx, n, opts, fns...)
	return ref, rep, err
}

// chainWithCtx executes one streaming chain under ctx — the engine behind
// Hop plan nodes and ChainCtx. Cancellation is polled before every hop and
// inside each hop's pipeline; on any failure the chain releases every
// region it allocated so far (in reverse allocation order — the guests'
// allocators are LIFO), so a chain cancelled while an interior hop is on
// the wire frees all pinned interior refs. It also returns the concrete
// instance the final delivery landed on, feeding plan dataflow (From) edges.
func (p *Platform) chainWithCtx(ctx context.Context, n int, opts []TransferOption, fns ...*Function) (DataRef, Report, *Instance, error) {
	if err := p.beginOp(); err != nil {
		return DataRef{}, Report{}, nil, err
	}
	defer p.endOp()

	head, err := fns[0].pickInstance()
	if err != nil {
		return DataRef{}, Report{}, nil, fmt.Errorf("chain head: %w", err)
	}
	// The head's in-flight mark is retired on every path out of the produce
	// — the bracket must not outlive the operation, or the gauge baseline
	// drifts and LeastLoaded steers around a phantom invocation forever.
	fns[0].route.Enter(head.index)
	ref, err := head.produceAt(n)
	fns[0].route.Exit(head.index)
	if err != nil {
		return DataRef{}, Report{}, nil, fmt.Errorf("chain head %s: produce: %w", head.Name(), err)
	}

	// Every region this chain allocates, in order: the head's produce, then
	// one delivery per completed hop. On failure they are handed back to
	// their guests newest-first, rewinding each touched instance's bump
	// allocator to its pre-chain position.
	type chainAlloc struct {
		inst *Instance
		ref  DataRef
	}
	allocs := []chainAlloc{{head, ref}}
	fail := func(err error) (DataRef, Report, *Instance, error) {
		for i := len(allocs) - 1; i >= 0; i-- {
			_ = allocs[i].inst.inner.Deallocate(allocs[i].ref.Ptr)
		}
		return DataRef{}, Report{}, nil, err
	}

	cur := head
	hops := len(fns) - 1
	var total Report
	for i := 0; i+1 < len(fns); i++ {
		if err := ctxErr(ctx); err != nil {
			return fail(fmt.Errorf("hop %d/%d (%s->%s): %w", i+1, hops, cur.Name(), fns[i+1].Name(), err))
		}
		cfg := transferConfig{flows: 1, ctx: ctx}
		for _, opt := range opts {
			opt(&cfg)
		}
		src := ref
		cfg.sourceRef = &src
		cfg.srcInst, cfg.dstInst = nil, nil
		// deliverRouted retries a hop whose target replica faults on the
		// survivors of the next function's pool; the hop's source is the
		// previous delivery and is never re-routed (its region is fixed).
		var rep Report
		var di *Instance
		ref, rep, di, err = p.deliverRouted(cur, fns[i+1], &cfg)
		if err != nil {
			return fail(fmt.Errorf("hop %d/%d (%s->%s): %w", i+1, hops, cur.Name(), fns[i+1].Name(), err))
		}
		allocs = append(allocs, chainAlloc{di, ref})
		fns[i+1].setActive(di)
		if i == 0 {
			total = rep
		} else {
			total = total.Merge(rep)
		}
		cur = di
	}
	return ref, total, cur, nil
}

// MulticastCtx delivers src's current output to every target in a single
// pass over the virtual data hose, duplicating page references with tee(2)
// semantics instead of re-reading the source per target — the zero-copy
// fan-out extension of Algorithm 1. Targets may live anywhere except inside
// the source instance's own VM: replicated targets are routed preferring an
// instance co-located with the source (the same-node socketpair leg shares
// pages without ever touching a wire — the cheapest leg of a fan-out),
// falling back to cross-node instances, and a mixed target set splits into
// one tee group feeding same-node sockets and per-link network sends from
// the same source pass. One report per target is returned, Mode
// "kernel-multicast" or "network-multicast" per leg.
//
// Wire time is modeled per cross-node target: each such target's report
// charges the link between the source instance's node and that target
// instance's node, shared by the number of multicast targets using the same
// link (override the sharing degree with WithFlows); same-node legs charge
// no wire time. Supported options are WithFlows, WithChannelCache,
// WithPhaseLocked, WithSourceRef, WithSourceInstance and WithMode
// (ModeKernelSpace restricts routing to co-located instances, ModeNetwork
// to cross-node ones); ModeUserSpace — like pinning a single target
// instance — is rejected with ErrModeUnavailable, since multicast shares
// kernel pages across VMs with policy-routed targets.
//
// Cancellation of ctx is observed at entry, during the source tee pass and
// at every target drain, and an aborted fan-out destroys its channels
// (draining stranded pages) exactly as other multicast failures do. It is
// the one-shot form of a Plan's Cast node (DESIGN.md §7).
func (p *Platform) MulticastCtx(ctx context.Context, src *Function, targets []*Function, opts ...TransferOption) ([]DataRef, []Report, error) {
	n := PlanNode{op: opCast, src: src, targets: targets, opts: opts, label: "cast#0"}
	if err := n.admit(ctx, p); err != nil {
		return nil, nil, err
	}
	return p.multicastCtx(ctx, src, targets, opts)
}

// multicastCtx executes one multicast under ctx — the engine behind Cast
// plan nodes and MulticastCtx.
func (p *Platform) multicastCtx(ctx context.Context, src *Function, targets []*Function, opts []TransferOption) ([]DataRef, []Report, error) {
	if err := p.beginOp(); err != nil {
		return nil, nil, err
	}
	defer p.endOp()
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	// Option legality (network-path only, no target-instance pins) is
	// enforced once, by plan validation (PlanNode.check) — the only way
	// into this engine.
	cfg := transferConfig{ctx: ctx}
	for _, opt := range opts {
		opt(&cfg)
	}
	si, err := resolveSource(src, &cfg)
	if err != nil {
		return nil, nil, err
	}
	inner := make([]*core.Function, len(targets))
	links := make([]*netsim.Link, len(targets))
	chosen := make([]*Instance, len(targets))
	for i, t := range targets {
		t := t
		colocated := func(j int) bool {
			return t.insts[j].node == si.node && t.insts[j].inner.Shim() != si.inner.Shim()
		}
		remote := func(j int) bool { return t.insts[j].node != si.node }
		j := -1
		switch cfg.mode {
		case ModeKernelSpace:
			j = p.place.PickTarget(si.endpoint(), t.route, t.eps, colocated, p.linkCost)
		case ModeNetwork:
			j = p.place.PickTarget(si.endpoint(), t.route, t.eps, remote, p.linkCost)
		default:
			// ModeAuto: co-located legs first — a tee into a same-node
			// socket shares pages without touching a wire — then
			// cross-node ones, then whatever is left so the core layer
			// can name the fault (e.g. a same-VM target) itself.
			j = p.place.PickTarget(si.endpoint(), t.route, t.eps, colocated, p.linkCost)
			if j < 0 {
				j = p.place.PickTarget(si.endpoint(), t.route, t.eps, remote, p.linkCost)
			}
			if j < 0 {
				j = p.place.PickTarget(si.endpoint(), t.route, t.eps, nil, p.linkCost)
			}
		}
		if j < 0 {
			// Multicast legs share one tee pass over the source, so a
			// failed leg cannot be re-routed mid-hose: no retry here
			// (DESIGN.md §8), and an exhausted pool fails the operation.
			if cfg.mode == ModeKernelSpace || cfg.mode == ModeNetwork {
				return nil, nil, fmt.Errorf("multicast to %s: no healthy instance reachable in mode %v: %w", t.Name(), cfg.mode, ErrModeUnavailable)
			}
			return nil, nil, fmt.Errorf("multicast to %s: %w", t.Name(), ErrNoHealthyInstance)
		}
		chosen[i] = t.insts[j]
		inner[i] = chosen[i].inner
		if chosen[i].node != si.node {
			links[i] = p.topo.LinkBetween(si.node, chosen[i].node)
		}
	}
	var flows []int
	if cfg.flows > 0 {
		flows = make([]int, len(targets))
		for i := range flows {
			flows[i] = cfg.flows
		}
	}
	si.fn.route.Enter(si.index)
	for _, di := range chosen {
		di.fn.route.Enter(di.index)
	}
	defer func() {
		si.fn.route.Exit(si.index)
		for _, di := range chosen {
			di.fn.route.Exit(di.index)
		}
	}()
	refs, reps, err := core.MulticastTransfer(si.inner, inner, core.MulticastOptions{
		Ctx:            cfg.ctx,
		Links:          links,
		Flows:          flows,
		NoChannelCache: cfg.coldChannel,
		PhaseLocked:    cfg.phaseLocked,
		SourceRef:      coreSourceRef(cfg.sourceRef),
		Gates:          cfg.gates,
	})
	if err != nil {
		return nil, nil, err
	}
	outRefs := make([]DataRef, len(refs))
	for i := range refs {
		outRefs[i] = DataRef{Ptr: refs[i].Ptr, Len: refs[i].Len}
		targets[i].setActive(chosen[i])
	}
	return outRefs, reps, nil
}

// FanoutCtx produces an n-byte payload at a routed instance of src and
// delivers it to every target (the fan-out pattern of §6.4), each target
// routed to an instance by the placement policy. The produce step runs
// once. Targets with a healthy replica co-located with the producing
// instance form a shared-egress tee group served by one MulticastTransfer
// pass: the source's pages are vmspliced once and tee(2)-duplicated into
// every group member's socketpair, so N same-node deliveries share one
// pinned read instead of paying N full transfers (Mode "kernel-multicast"
// in their reports). The remaining targets execute across the platform's
// worker pool as independent unicast deliveries reading the same pinned
// source region, with network transfers modeled as all targets' flows
// sharing the link. WithPerTargetFanout disables the tee group — the
// ablation baseline the fan-out experiments compare against. It returns one
// delivery ref and one report per target, in target order — the same shape
// MulticastCtx returns. The produce side may be pinned with
// WithSourceInstance; pinning a single target instance is rejected with
// ErrModeUnavailable, since every target is routed by the placement policy.
//
// Cancellation of ctx is observed at queue admission of every delivery and
// inside each delivery's pipeline. An aborted fan-out releases the produced
// source region and every delivery that had already landed, restoring the
// guests' allocators and data-plane baselines. It is the one-shot form of a
// Plan's Fan node (DESIGN.md §7).
func (p *Platform) FanoutCtx(ctx context.Context, src *Function, targets []*Function, n int, opts ...TransferOption) ([]DataRef, []Report, error) {
	node := PlanNode{op: opFan, src: src, targets: targets, bytes: n, opts: opts, label: "fan#0"}
	if err := node.admit(ctx, p); err != nil {
		return nil, nil, err
	}
	return p.fanoutCtx(ctx, src, targets, n, opts)
}

// fanoutCtx executes one fan-out under ctx — the engine behind Fan plan
// nodes and FanoutCtx. On failure it releases every region the operation
// allocated: completed deliveries first, then the pinned source region.
func (p *Platform) fanoutCtx(ctx context.Context, src *Function, targets []*Function, n int, opts []TransferOption) ([]DataRef, []Report, error) {
	if err := p.beginOp(); err != nil {
		return nil, nil, err
	}
	defer p.endOp()
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	// Target-instance pins are rejected once, by plan validation
	// (PlanNode.check) — the only way into this engine.
	base := transferConfig{flows: 1, ctx: ctx}
	for _, opt := range opts {
		opt(&base)
	}
	si, err := resolveProducer(src, &base)
	if err != nil {
		return nil, nil, err
	}
	src.route.Enter(si.index)
	out, err := si.produceAt(n)
	src.route.Exit(si.index)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) ([]DataRef, []Report, error) {
		_ = si.inner.Deallocate(out.Ptr)
		return nil, nil, err
	}
	pool := p.scheduler()
	if pool == nil {
		return fail(ErrClosed)
	}
	// Shared-egress grouping: targets with a healthy replica co-located
	// with the producing instance (same node, different shim) are served by
	// ONE multicast tee pass — N same-node deliveries share one pinned
	// read — while the rest keep the per-target worker-pool path below.
	// WithPerTargetFanout (the ablation baseline) and a forced network/user
	// mode disable the group.
	chosen := make([]*Instance, len(targets))
	inGroup := make([]bool, len(targets))
	group := make([]int, 0, len(targets))
	if !base.perTargetFanout && (base.mode == ModeAuto || base.mode == ModeKernelSpace) {
		for i, t := range targets {
			t := t
			colocated := func(j int) bool {
				return t.insts[j].node == si.node && t.insts[j].inner.Shim() != si.inner.Shim()
			}
			if j := p.place.PickTarget(si.endpoint(), t.route, t.eps, colocated, p.linkCost); j >= 0 {
				group = append(group, i)
				chosen[i] = t.insts[j]
				inGroup[i] = true
			}
		}
	}
	// Each remaining delivery routes (and, on an instance fault, re-routes)
	// inside its own worker; the pinned source region is only released
	// after every worker has returned, so no routing failure can strand a
	// running transfer reading it.
	cfgs := make([]transferConfig, len(targets))
	for i := range targets {
		cfg := base
		cfg.flows = len(targets)
		srcRef := out
		cfg.sourceRef = &srcRef
		cfg.srcInst, cfg.dstInst = nil, nil
		cfgs[i] = cfg
	}
	refs := make([]DataRef, len(targets))
	reports := make([]Report, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i := range targets {
		if inGroup[i] {
			continue
		}
		i := i
		wg.Add(1)
		if err := pool.SubmitCtx(ctx, func() {
			defer wg.Done()
			refs[i], reports[i], chosen[i], errs[i] = p.deliverRouted(si, targets[i], &cfgs[i])
		}); err != nil {
			errs[i] = err
			wg.Done()
		}
	}
	if len(group) > 0 {
		if gerr := p.fanoutGroup(ctx, si, group, chosen, &base, out, refs, reports); gerr != nil {
			// The tee group fails atomically (one shared pass). A
			// cancellation fails the whole fan-out; an instance fault falls
			// back to the per-target path, whose retry-with-exclusion
			// machinery strikes and re-routes around the faulted replica.
			if ctxErr(ctx) != nil || !isInstanceFault(gerr) {
				for _, i := range group {
					errs[i] = gerr
				}
			} else {
				for _, i := range group {
					refs[i], reports[i], chosen[i], errs[i] = p.deliverRouted(si, targets[i], &cfgs[i])
				}
			}
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			// Completed deliveries are this operation's allocations too:
			// hand them back before the source region. Descending-pointer
			// order releases duplicates that landed in one instance LIFO —
			// concurrent deliveries allocate in VM-lock arrival order, not
			// index order, so index order would not rewind the heap.
			landed := make([]int, 0, len(targets))
			for k := range targets {
				if errs[k] == nil {
					landed = append(landed, k)
				}
			}
			sort.Slice(landed, func(a, b int) bool { return refs[landed[a]].Ptr > refs[landed[b]].Ptr })
			for _, k := range landed {
				_ = chosen[k].inner.Deallocate(refs[k].Ptr)
			}
			return fail(fmt.Errorf("fanout to %s: %w", targets[i].Name(), err))
		}
	}
	for i := range targets {
		targets[i].setActive(chosen[i])
	}
	return refs, reports, nil
}

// fanoutGroup delivers the fan-out's co-located targets through one
// shared-egress multicast tee pass reading the pinned source region once,
// filling refs and reports at the group's indices and feeding each landed
// leg into the health observer. The group either lands whole or returns an
// error having released everything it allocated (MulticastTransfer's own
// failure contract), so the caller can retry its members individually.
func (p *Platform) fanoutGroup(ctx context.Context, si *Instance, group []int, chosen []*Instance, base *transferConfig, out DataRef, refs []DataRef, reports []Report) error {
	inner := make([]*core.Function, len(group))
	for k, i := range group {
		inner[k] = chosen[i].inner
	}
	si.fn.route.Enter(si.index)
	for _, i := range group {
		chosen[i].fn.route.Enter(chosen[i].index)
	}
	defer func() {
		si.fn.route.Exit(si.index)
		for _, i := range group {
			chosen[i].fn.route.Exit(chosen[i].index)
		}
	}()
	srcRef := out
	coreRefs, reps, err := core.MulticastTransfer(si.inner, inner, core.MulticastOptions{
		Ctx:            ctx,
		NoChannelCache: base.coldChannel,
		PhaseLocked:    base.phaseLocked,
		SourceRef:      coreSourceRef(&srcRef),
		Gates:          base.gates,
	})
	if err != nil {
		return err
	}
	for k, i := range group {
		refs[i] = DataRef{Ptr: coreRefs[k].Ptr, Len: coreRefs[k].Len}
		reports[i] = reps[k]
		observeDelivery(si, chosen[i], reports[i], nil)
	}
	return nil
}

// resolveProducer picks the instance a fresh payload is produced at: the
// pinned source instance, or the placement policy's choice.
func resolveProducer(src *Function, cfg *transferConfig) (*Instance, error) {
	if cfg.srcInst != nil {
		if cfg.srcInst.fn != src {
			return nil, fmt.Errorf("source %s: %w", cfg.srcInst.Name(), ErrForeignInstance)
		}
		return cfg.srcInst, nil
	}
	return src.pickInstance()
}

// SaveState snapshots the active instance's current output under a named
// key in the platform's shim-side state store — the function state
// management the paper lists as future work (§9). Entries are scoped to the
// function's workflow and tenant and shared by every replica instance.
func (f *Function) SaveState(key string) error {
	if err := f.platform.beginOp(); err != nil {
		return err
	}
	defer f.platform.endOp()
	return f.platform.state.Put(f.ActiveInstance().inner, key)
}

// LoadState delivers a previously saved payload back into the active
// instance's linear memory. Only the saving workflow/tenant can see the
// entry.
func (f *Function) LoadState(key string) (DataRef, error) {
	if err := f.platform.beginOp(); err != nil {
		return DataRef{}, err
	}
	defer f.platform.endOp()
	ref, err := f.platform.state.Get(f.ActiveInstance().inner, key)
	if err != nil {
		return DataRef{}, err
	}
	return DataRef{Ptr: ref.Ptr, Len: ref.Len}, nil
}

// DeleteState removes a state entry of the function's workflow.
func (f *Function) DeleteState(key string) {
	f.platform.state.Delete(core.Workflow{Name: f.workflow.Name, Tenant: f.workflow.Tenant}, key)
}

// StateKeys lists the state entries visible to the function's workflow.
func (f *Function) StateKeys() []string {
	return f.platform.state.Keys(core.Workflow{Name: f.workflow.Name, Tenant: f.workflow.Tenant})
}
