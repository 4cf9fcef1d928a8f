package roadrunner

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/core"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
)

// Name returns the function name.
func (f *Function) Name() string { return f.name }

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

// Produce runs the guest payload generator on a policy-routed instance,
// making an n-byte deterministic payload the function's current output.
func (f *Function) Produce(n int) error {
	return f.platform.produceRouted(f, n)
}

// Release returns a region to the guest allocator of the instance that owns
// it (ref.Instance()), as Instance.Release does. A ref with no owner, one
// owned by another function's instance, or one released already fails with
// ErrForeignInstance.
func (f *Function) Release(ref DataRef) error {
	if err := f.platform.beginOp(); err != nil {
		return err
	}
	defer f.platform.endOp()
	if ref.inst == nil || ref.inst.fn != f {
		return fmt.Errorf("%s: release of a ref it does not own: %w", f.name, ErrForeignInstance)
	}
	return ref.release()
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

// ExpectedChecksum returns the digest Instance.Checksum yields for an
// n-byte payload created by Produce — the end-to-end integrity oracle used
// by the examples and tests.
func ExpectedChecksum(n int) uint64 {
	return guest.ReferenceProduceChecksum(n)
}

// ChainCtx produces an n-byte payload at the first function and forwards it
// hop by hop through the rest (the sequential invocation pattern of §6.1),
// selecting the transfer mode per hop by locality; opts apply to every
// hop. Every hop's endpoint instances are routed by the placement policy —
// instance pins in opts are ignored: a chain's source instance is always
// the previous hop's delivery. It returns the merged report and the final
// delivery.
//
// Chains stream: every hop pins its input region explicitly (WithSourceRef),
// so the set_output + locate step runs atomically inside the hop's source
// stage, hop i+1's egress starts as soon as hop i's ingress lands, and at
// any moment a hop holds only the VM lock of the side actually touching
// bytes. Interior VMs are therefore free between their stages — free to
// serve other chains or unrelated transfers.
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
	return p.chainWithCtx(ctx, n, opts, fns...)
}

// chainWithCtx executes one streaming chain under ctx — the engine behind
// Hop plan nodes and ChainCtx. Cancellation is polled before every hop and
// inside each hop's pipeline; on any failure the chain releases every
// region it allocated so far, so a chain cancelled while an interior hop is
// on the wire frees all pinned interior refs.
func (p *Platform) chainWithCtx(ctx context.Context, n int, opts []TransferOption, fns ...*Function) (DataRef, Report, error) {
	if err := p.beginOp(); err != nil {
		return DataRef{}, Report{}, err
	}
	defer p.endOp()

	head, err := fns[0].pickInstance()
	if err != nil {
		return DataRef{}, Report{}, fmt.Errorf("chain head: %w", err)
	}
	// The head's in-flight mark is retired on every path out of the produce
	// — the bracket must not outlive the operation, or the gauge baseline
	// drifts and LeastLoaded steers around a phantom invocation forever.
	fns[0].route.Enter(head.index)
	ref, err := head.produceAt(n)
	fns[0].route.Exit(head.index)
	if err != nil {
		return DataRef{}, Report{}, fmt.Errorf("chain head %s: produce: %w", head.Name(), err)
	}

	// Every region this chain allocates: the head's produce, then one
	// delivery per completed hop. On failure each goes back to its guest,
	// leaving every touched instance's heap at its pre-chain position.
	allocs := []DataRef{ref}
	fail := func(err error) (DataRef, Report, error) {
		for _, r := range allocs {
			_ = r.release()
		}
		return DataRef{}, Report{}, err
	}

	cur := head
	hops := len(fns) - 1
	var total Report
	for i := 0; i+1 < len(fns); i++ {
		if err := ctxErr(ctx); err != nil {
			return fail(fmt.Errorf("hop %d/%d (%s->%s): %w", i+1, hops, cur.Name(), fns[i+1].Name(), err))
		}
		cfg := transferConfig{ctx: ctx}
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
		ref, rep, err = p.deliverRouted(cur, fns[i+1], &cfg)
		if err != nil {
			return fail(fmt.Errorf("hop %d/%d (%s->%s): %w", i+1, hops, cur.Name(), fns[i+1].Name(), err))
		}
		allocs = append(allocs, ref)
		cur = ref.inst
		fns[i+1].setActive(cur)
		if i == 0 {
			total = rep
		} else {
			total = total.Merge(rep)
		}
	}
	return ref, total, nil
}

// MulticastCtx delivers src's current output to every target in a single
// pass over the virtual data hose, duplicating page references with tee(2)
// semantics instead of re-reading the source per target — the zero-copy
// fan-out extension of Algorithm 1. Targets may live anywhere except inside
// the source instance's own VM: replicated targets are routed preferring an
// instance co-located with the source (the same-node socketpair leg shares
// pages without ever touching a wire — the cheapest leg of a fan-out),
// falling back to cross-node instances, and a mixed target set splits into
// one tee group feeding same-node sockets and cross-node connections from
// the same source pass. One report per target is returned, Mode
// "kernel-multicast" or "network-multicast" per leg.
//
// Wire time is modeled per cross-node target: each such target's report
// charges the platform's link, shared by the cast's cross-node legs;
// same-node legs charge no wire time. Supported options are WithSourceRef,
// WithSourceInstance and WithMode (ModeKernelSpace restricts routing to
// co-located instances, ModeNetwork to cross-node ones); ModeUserSpace —
// like pinning a single target instance — is rejected with
// ErrModeUnavailable, since multicast shares kernel pages across VMs with
// policy-routed targets.
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
	chosen, err := p.routeCast("multicast", si, targets, cfg.mode)
	if err != nil {
		return nil, nil, err
	}
	refs, reps, err := p.castInstances(si, chosen, &cfg)
	if err != nil {
		return nil, nil, err
	}
	for i := range refs {
		targets[i].setActive(chosen[i])
	}
	return refs, reps, nil
}

// routeCast places every target of a cast from the source instance si. A
// forced mode routes within its own reach. ModeAuto tries co-located
// instances first — a tee into a same-node socket shares pages without
// touching a wire — then cross-node ones, then whatever is left: a same-VM
// instance, which the core rejects for a multicast (ErrSameVM) and a
// fan-out serves in user space. Legs share one tee pass over the source, so
// a failed leg cannot be re-routed mid-hose (DESIGN.md §8) and a target
// with no instance to route to fails the operation; verb names it.
func (p *Platform) routeCast(verb string, si *Instance, targets []*Function, mode Mode) ([]*Instance, error) {
	tries := []Mode{mode}
	if mode == ModeAuto {
		tries = []Mode{ModeKernelSpace, ModeNetwork, ModeAuto}
	}
	chosen := make([]*Instance, len(targets))
	for i, t := range targets {
		j := -1
		for _, m := range tries {
			if j = p.place.PickTarget(si.endpoint(), t.route, t.eps, modeEligible(si, t, m), nil); j >= 0 {
				break
			}
		}
		if j < 0 {
			if mode != ModeAuto {
				return nil, fmt.Errorf("%s to %s: no healthy instance reachable in mode %v: %w", verb, t.Name(), mode, ErrModeUnavailable)
			}
			return nil, fmt.Errorf("%s to %s: %w", verb, t.Name(), ErrNoHealthyInstance)
		}
		chosen[i] = t.insts[j]
	}
	return chosen, nil
}

// castInstances runs one multicast from the source instance si to the
// placed target instances chosen, over the platform's link, with cfg's
// context, pinned source region and gates — the one path Cast and Fan nodes
// take into the core. It brackets every endpoint's routing load around the
// transfer and feeds each landed leg into both endpoints' health FSMs, as
// every other delivery does. A cast that fails with an instance fault a leg
// caused strikes that leg's target, as a failed delivery strikes its
// target; a source-side failure names no leg and strikes nobody. Legs are
// never retried (they share one tee pass, DESIGN.md §8). Placement stays
// with the callers.
func (p *Platform) castInstances(si *Instance, chosen []*Instance, cfg *transferConfig) ([]DataRef, []Report, error) {
	inner := make([]*core.Function, len(chosen))
	for i, di := range chosen {
		inner[i] = di.inner
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
		Ctx:       cfg.ctx,
		Link:      p.link,
		SourceRef: coreSourceRef(cfg.sourceRef),
		Gates:     cfg.gates,
	})
	if err != nil {
		var leg *core.LegError
		if errors.As(err, &leg) && isInstanceFault(err) {
			di := chosen[leg.Leg]
			di.fn.route.Observe(di.index, 0, err)
		}
		return nil, nil, err
	}
	out := make([]DataRef, len(refs))
	for i := range refs {
		out[i] = DataRef{Ptr: refs[i].Ptr, Len: refs[i].Len, inst: chosen[i]}
		observeDelivery(si, chosen[i], reps[i], nil)
	}
	return out, reps, nil
}

// FanoutCtx produces an n-byte payload at a routed instance of src and
// delivers it to every target (the fan-out pattern of §6.4): the produce
// step runs once, then one cast — MulticastCtx's engine, with its routing —
// reads the produced region once and tee(2)-duplicates its pages into every
// target. Reports read as MulticastCtx's do: Mode "kernel-multicast" or
// "network-multicast" per target, the cross-node legs charged the link
// shared by the cast's cross-node legs alone. A target routed into the
// producing instance's own VM, which no tee reaches, takes a user-space
// delivery there (Mode "user"), before the cast and in one attempt: a
// user-space copy makes no syscall, so no instance fault can strike it.
// When the cast fails with an instance fault, every cast target falls back
// to a delivery of its own with retry-with-exclusion, which strikes and
// re-routes around the faulted replica; the fallback is decided once, so a
// cancellation during it fails the fan-out with ctx's error. It returns one
// delivery ref and one report per target, in target order — the same shape
// MulticastCtx returns. The produce side may be pinned with
// WithSourceInstance; pinning a single target instance is rejected with
// ErrModeUnavailable, since every target is routed by the placement policy.
//
// Cancellation of ctx is observed at entry, during the tee pass and at every
// target drain. An aborted fan-out releases the produced source region and
// every delivery that had already landed, restoring the guests' allocators
// and data-plane baselines. It is the one-shot form of a Plan's Fan node
// (DESIGN.md §7).
func (p *Platform) FanoutCtx(ctx context.Context, src *Function, targets []*Function, n int, opts ...TransferOption) ([]DataRef, []Report, error) {
	node := PlanNode{op: opFan, src: src, targets: targets, bytes: n, opts: opts, label: "fan#0"}
	if err := node.admit(ctx, p); err != nil {
		return nil, nil, err
	}
	return p.fanoutCtx(ctx, src, targets, n, opts)
}

// fanoutCtx executes one fan-out under ctx — the engine behind Fan plan
// nodes and FanoutCtx: produce once, then cast from the produced region. On
// failure it releases every region the operation allocated: completed
// deliveries first, then the produced region.
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
	cfg := transferConfig{ctx: ctx}
	for _, opt := range opts {
		opt(&cfg)
	}
	si, err := resolveProducer(src, &cfg)
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
		_ = out.release()
		return nil, nil, err
	}
	cfg.sourceRef = &out
	chosen, err := p.routeCast("fanout", si, targets, cfg.mode)
	if err != nil {
		return fail(err)
	}
	refs := make([]DataRef, len(targets))
	reports := make([]Report, len(targets))
	errs := make([]error, len(targets))
	var cast []int
	var members []*Instance
	for i, di := range chosen {
		if di.inner.Shim() == si.inner.Shim() {
			// A tee cannot reach its own VM: a target routed into the
			// producer's VM takes a user-space delivery there, before the
			// cast (both hold the producer's VM lock). It is one attempt:
			// a user-space copy makes no syscall, so no instance fault
			// can strike it and there is nothing to re-route around.
			pinned := cfg
			pinned.dstInst = di
			refs[i], reports[i], errs[i] = p.deliverRouted(si, targets[i], &pinned)
			continue
		}
		cast = append(cast, i)
		members = append(members, di)
	}
	if len(cast) > 0 {
		crefs, creps, cerr := p.castInstances(si, members, &cfg)
		// The cast fails whole, having released what it landed. On an
		// instance fault each target retries alone, striking and
		// re-routing around the faulted replica; a cancellation after this
		// decision is deliverRouted's to report.
		fallback := cerr != nil && ctxErr(ctx) == nil && isInstanceFault(cerr)
		for k, i := range cast {
			switch {
			case cerr == nil:
				refs[i], reports[i] = crefs[k], creps[k]
			case fallback:
				refs[i], reports[i], errs[i] = p.deliverRouted(si, targets[i], &cfg)
			default:
				errs[i] = cerr
			}
		}
	}
	for i, err := range errs {
		if err != nil {
			// Completed deliveries are this operation's allocations too:
			// hand them back before the source region.
			for k := range targets {
				if errs[k] == nil {
					_ = refs[k].release()
				}
			}
			return fail(fmt.Errorf("fanout to %s: %w", targets[i].Name(), err))
		}
	}
	for i := range targets {
		targets[i].setActive(refs[i].inst)
	}
	return refs, reports, nil
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

// StateKeys lists the state entries visible to the function's workflow.
func (f *Function) StateKeys() []string {
	return f.platform.state.Keys(core.Workflow{Name: f.workflow.Name, Tenant: f.workflow.Tenant})
}
