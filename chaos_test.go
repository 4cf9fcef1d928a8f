// Chaos conservation tests (DESIGN.md §8): randomized fault schedules —
// crashed sandboxes, wires dropped mid-hose, poisoned cached channels,
// whole nodes failing — must leave every data-plane baseline the cancel
// suite pins exact once the platform heals: FD tables, the kernel page
// pool, the channel-cache active count, account residency and the guests'
// bump allocators. Determinism comes in two layers: the CHAOS_SEED
// environment variable reproduces a schedule, and FaultPlan replays
// identical fault sequences for identical call sequences.
//
// Baselines are asserted at quiescence: every round heals all faults,
// releases every region its successful operations landed, prunes the
// channel cache (rerouted deliveries establish channels between fresh shim
// pairs, which would otherwise read as drift), and only then compares
// against the post-warmup snapshot. All tests here run under -race in CI.
package roadrunner_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
)

// chaosSeed resolves the schedule seed: CHAOS_SEED reproduces a run, and a
// time-derived default explores; either way the log line has the rerun
// recipe.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := time.Now().UnixNano()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("chaos schedule seed: %d (rerun with CHAOS_SEED=%d)", seed, seed)
	return seed
}

// chaosFixture is the deployment the schedule runs against: a replicated
// source and target pool spread across two nodes.
type chaosFixture struct {
	p        *roadrunner.Platform
	src, dst *roadrunner.Function
	nodes    []string
}

func newChaosFixture(t *testing.T) *chaosFixture {
	t.Helper()
	p := roadrunner.New(
		roadrunner.WithNodes("edge", "cloud"),
		// Near-instant probe re-admission: healed replicas re-enter the
		// candidate pools on the next routed operation.
		roadrunner.WithHealth(roadrunner.HealthConfig{
			FailureThreshold: 2,
			ProbeAfter:       time.Nanosecond,
			MaxProbeAfter:    time.Microsecond,
		}),
	)
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Replicas: 2, Nodes: []string{"edge", "cloud"}})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := p.Deploy(roadrunner.FunctionSpec{Name: "dst", Replicas: 4, Nodes: []string{"edge", "cloud"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return &chaosFixture{p: p, src: src, dst: dst, nodes: []string{"edge", "cloud"}}
}

const chaosPayload = 64 << 10

// invokeAndRelease runs one routed invocation and hands back every region it
// allocated. Failures are the point of the exercise — their paths must
// conserve on their own — so only successes have anything to release.
func (fx *chaosFixture) invokeAndRelease() {
	inv, err := fx.p.InvokeCtx(bg, fx.src, fx.dst, chaosPayload)
	if err != nil {
		return
	}
	_ = inv.Target.Release(inv.Ref)
	if out, err := inv.Source.Output(); err == nil {
		_ = inv.Source.Release(out)
	}
}

// transferAndRelease produces at a routed source instance, transfers, and
// releases both the delivery and the produced region.
func (fx *chaosFixture) transferAndRelease() {
	if err := fx.src.Produce(chaosPayload); err != nil {
		return
	}
	si := fx.src.ActiveInstance()
	ref, _, err := fx.p.TransferCtx(bg, fx.src, fx.dst)
	if err == nil {
		_ = fx.dst.ActiveInstance().Release(ref)
	}
	if out, oerr := si.Output(); oerr == nil {
		_ = si.Release(out)
	}
}

// heal clears every instance- and node-level fault.
func (fx *chaosFixture) heal() {
	for _, f := range []*roadrunner.Function{fx.src, fx.dst} {
		for _, inst := range f.Instances() {
			inst.Recover()
		}
	}
	for _, n := range fx.nodes {
		_ = fx.p.InjectNodeFault(n, nil)
	}
}

// armRandomFault injects one randomly chosen fault from the taxonomy:
// instance crash, crash-at-Nth-syscall, wire drop mid-hose, poisoned cached
// channels, or a node failing wholesale.
func (fx *chaosFixture) armRandomFault(rng *rand.Rand) {
	anyInstance := func() *roadrunner.Instance {
		f := fx.src
		if rng.Intn(2) == 0 {
			f = fx.dst
		}
		return f.Instance(rng.Intn(len(f.Instances())))
	}
	switch rng.Intn(5) {
	case 0:
		anyInstance().InjectFault(kernel.Crash())
	case 1:
		anyInstance().CrashAfter(int64(rng.Intn(24)))
	case 2:
		anyInstance().InjectFault(kernel.DropWire(int64(rng.Intn(8))))
	case 3:
		anyInstance().PoisonChannels()
	case 4:
		_ = fx.p.InjectNodeFault(fx.nodes[rng.Intn(len(fx.nodes))], kernel.Crash())
	}
}

// TestChaosScheduleConservesBaselines runs seeded random fault schedules
// against live traffic and asserts, at every healed quiescence point, the
// exact baselines the cancellation suite pins.
func TestChaosScheduleConservesBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed(t)))
	fx := newChaosFixture(t)

	op := func() {
		if rng.Intn(2) == 0 {
			fx.invokeAndRelease()
		} else {
			fx.transferAndRelease()
		}
	}

	// Warm up fault-free at chaos payload size (memory high-water, warm
	// channels), then quiesce and snapshot.
	for i := 0; i < 8; i++ {
		op()
	}
	fx.heal()
	roadrunner.TestingPruneChannels(fx.p)
	base := snapshotBaselines(t, fx.p, fx.nodes, fx.src, fx.dst)

	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		for faults := 1 + rng.Intn(2); faults > 0; faults-- {
			fx.armRandomFault(rng)
		}
		ops := 4 + rng.Intn(5)
		for i := 0; i < ops; i++ {
			op()
		}
		fx.heal()
		// A couple of clean operations drain the probe path: healed
		// replicas re-admit, and any channel a fault poisoned is either
		// repaired in use or destroyed by the prune below.
		op()
		op()
		roadrunner.TestingPruneChannels(fx.p)
		assertBaselines(t, fx.p, fx.nodes, base, fx.src, fx.dst)
		for _, f := range []*roadrunner.Function{fx.src, fx.dst} {
			for _, inst := range f.Instances() {
				if got := inst.InFlight(); got != 0 {
					t.Fatalf("round %d: %s InFlight = %d after quiescence, want 0", round, inst.Name(), got)
				}
			}
		}
	}
}

// TestSubmitSurvivesReplicaDeath kills 1 of 16 target replicas in the
// middle of a Plan's load and requires the Submit to succeed end to end:
// the invoker plane strikes the dead replica, excludes it from every
// placement candidate pool and re-routes its deliveries onto the 15
// survivors.
func TestSubmitSurvivesReplicaDeath(t *testing.T) {
	p := roadrunner.New(
		roadrunner.WithNodes("edge", "cloud"),
		// One strike condemns; the hour-long cooldown keeps the corpse out
		// of the pools for the whole test.
		roadrunner.WithHealth(roadrunner.HealthConfig{
			FailureThreshold: 1,
			ProbeAfter:       time.Hour,
		}),
	)
	defer p.Close()
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := p.Deploy(roadrunner.FunctionSpec{Name: "dst", Replicas: 16, Node: "cloud"})
	if err != nil {
		t.Fatal(err)
	}

	// The doomed replica dies mid-load, partway through the first delivery
	// routed to it: a 64 KiB delivery makes two data-plane syscalls at the
	// target, and the second one crashes. Least-loaded routing over 32
	// invocations hands each of the 16 replicas one or two, so the doomed
	// replica sees at least one, and the crash needs no more than that.
	doomed := dst.Instance(3)
	doomed.CrashAfter(1)

	plan := roadrunner.NewPlan()
	const invocations = 32
	nodes := make([]*roadrunner.PlanNode, invocations)
	for i := range nodes {
		nodes[i] = plan.Invoke(src, dst, chaosPayload)
	}
	job, err := p.Submit(nil, plan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait(nil)
	if err != nil {
		t.Fatalf("Submit with 1/16 replicas killed mid-load: %v", err)
	}
	want := roadrunner.ExpectedChecksum(chaosPayload)
	landedOnDoomed := 0
	for i, n := range nodes {
		nr := res.Node(n)
		if nr.Err != nil {
			t.Fatalf("invocation %d failed: %v", i, nr.Err)
		}
		if nr.Invocation.Target == doomed {
			landedOnDoomed++
			sum, err := doomed.Checksum(nr.Invocation.Ref)
			if err != nil || sum != want {
				t.Fatalf("invocation %d landed on the doomed replica with bad payload (sum %d, err %v)", i, sum, err)
			}
		}
	}
	// The fault fired: a delivery was routed to the doomed replica and
	// retried away from it.
	if routed := doomed.Invocations(); routed == 0 || int64(landedOnDoomed) >= routed {
		t.Fatalf("doomed replica: %d deliveries routed, %d landed; want one retried away", routed, landedOnDoomed)
	}
	if got := doomed.Health(); got != roadrunner.HealthUnhealthy {
		t.Fatalf("doomed replica Health = %v, want %v", got, roadrunner.HealthUnhealthy)
	}
	for _, inst := range dst.Instances() {
		if inst != doomed && inst.Health() != roadrunner.HealthHealthy {
			t.Fatalf("surviving replica %s Health = %v, want healthy", inst.Name(), inst.Health())
		}
		if inst.InFlight() != 0 {
			t.Fatalf("%s InFlight = %d after Submit, want 0", inst.Name(), inst.InFlight())
		}
	}
	// The platform reports the same view operators read.
	for _, acct := range dst.Report().Instances {
		want := roadrunner.HealthHealthy
		if acct.Instance == doomed.Name() {
			want = roadrunner.HealthUnhealthy
		}
		if acct.Health != want {
			t.Fatalf("report: %s Health = %v, want %v", acct.Instance, acct.Health, want)
		}
	}
}

// TestFaultedOpsLeaveNoInFlightResidue fails transfer, invoke, chain and
// fanout operations against single-replica pools (retry has nowhere to go,
// so every operation surfaces its fault) and asserts the in-flight gauges
// of every touched instance return to zero — the regression guard for
// route-gauge leaks on early-return paths.
func TestFaultedOpsLeaveNoInFlightResidue(t *testing.T) {
	newTrio := func(t *testing.T) (*roadrunner.Platform, []*roadrunner.Function) {
		p := roadrunner.New(roadrunner.WithNodes("edge", "mid", "cloud"))
		t.Cleanup(p.Close)
		names := []string{"edge", "mid", "cloud"}
		fns := make([]*roadrunner.Function, 3)
		for i, letter := range []string{"a", "b", "c"} {
			f, err := p.Deploy(roadrunner.FunctionSpec{Name: letter, Node: names[i]})
			if err != nil {
				t.Fatal(err)
			}
			fns[i] = f
		}
		return p, fns
	}
	assertIdle := func(t *testing.T, fns []*roadrunner.Function) {
		t.Helper()
		for _, f := range fns {
			for _, inst := range f.Instances() {
				if got := inst.InFlight(); got != 0 {
					t.Fatalf("%s InFlight = %d after failed op, want 0", inst.Name(), got)
				}
			}
		}
	}

	t.Run("transfer", func(t *testing.T) {
		p, fns := newTrio(t)
		if err := fns[0].Produce(chaosPayload); err != nil {
			t.Fatal(err)
		}
		fns[2].Instance(0).InjectFault(kernel.Crash())
		if _, _, err := p.TransferCtx(bg, fns[0], fns[2]); err == nil {
			t.Fatal("transfer to crashed single-replica target succeeded")
		}
		assertIdle(t, fns)
	})
	t.Run("invoke", func(t *testing.T) {
		p, fns := newTrio(t)
		fns[2].Instance(0).InjectFault(kernel.DropWire(0))
		if _, err := p.InvokeCtx(bg, fns[0], fns[2], chaosPayload); err == nil {
			t.Fatal("invoke onto dropped wire succeeded")
		}
		assertIdle(t, fns)
	})
	t.Run("chain", func(t *testing.T) {
		p, fns := newTrio(t)
		fns[1].Instance(0).InjectFault(kernel.Crash())
		if _, _, err := p.ChainCtx(bg, chaosPayload, []*roadrunner.Function{fns[0], fns[1], fns[2]}); err == nil {
			t.Fatal("chain through crashed interior hop succeeded")
		}
		assertIdle(t, fns)
	})
	t.Run("fanout", func(t *testing.T) {
		p, fns := newTrio(t)
		fns[1].Instance(0).InjectFault(kernel.Crash())
		if _, _, err := p.FanoutCtx(bg, fns[0], []*roadrunner.Function{fns[1], fns[2]}, chaosPayload); err == nil {
			t.Fatal("fanout with crashed target succeeded")
		}
		assertIdle(t, fns)
	})
	t.Run("produce traps", func(t *testing.T) {
		// A produce of 4 GiB - 1 bytes traps in the guest allocator's
		// bound check before it writes a byte. Each engine brackets its
		// produce in the producer's in-flight gauge, and the bracket must
		// close on the produce's own error path too.
		const trap = 1<<32 - 1
		p, fns := newTrio(t)
		if _, _, err := p.FanoutCtx(bg, fns[0], []*roadrunner.Function{fns[1], fns[2]}, trap); !errors.Is(err, wasm.TrapUnreachable) {
			t.Fatalf("fanout of a trapping produce = %v, want the guest's trap", err)
		}
		assertIdle(t, fns)
		if _, _, err := p.ChainCtx(bg, trap, fns); !errors.Is(err, wasm.TrapUnreachable) {
			t.Fatalf("chain of a trapping produce = %v, want the guest's trap", err)
		}
		assertIdle(t, fns)
		if err := fns[0].Produce(trap); !errors.Is(err, wasm.TrapUnreachable) {
			t.Fatalf("trapping produce = %v, want the guest's trap", err)
		}
		assertIdle(t, fns)
	})
	t.Run("chain head produce then early return", func(t *testing.T) {
		// A chain's head produce brackets the head replica's in-flight
		// gauge; if the chain then dies before its first hop (here: a
		// pre-cancelled context, polled after the produce), the bracket
		// must already be closed. A leak is invisible to this chain but
		// poisons routing forever after: LeastLoaded orders replicas by
		// in-flight count first, so one phantom invocation steers every
		// later chain away from the leaked replica.
		p := roadrunner.New(
			roadrunner.WithNodes("edge", "cloud"),
			roadrunner.WithPlacement(roadrunner.PlacementLeastLoaded),
		)
		t.Cleanup(p.Close)
		a, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Replicas: 2, Node: "edge"})
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: "cloud"})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, _, err := p.ChainCtx(ctx, chaosPayload, []*roadrunner.Function{a, b}); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled chain: err = %v, want context.Canceled", err)
		}
		assertIdle(t, []*roadrunner.Function{a, b})
		// The aborted chain charged one produce to a head replica. With the
		// gauge back at zero, LeastLoaded's (in-flight, total) tie-break
		// alternates the next chains across both head replicas; a phantom
		// in-flight would pin them all to the survivor.
		for k := 0; k < 4; k++ {
			if _, _, err := p.ChainCtx(bg, chaosPayload, []*roadrunner.Function{a, b}); err != nil {
				t.Fatalf("chain %d after aborted chain: %v", k, err)
			}
		}
		for i := 0; i < 2; i++ {
			if got := a.Instance(i).Invocations(); got < 2 {
				t.Fatalf("head replica %d Invocations = %d after 5 chains, want >= 2 (phantom in-flight steering LeastLoaded?)", i, got)
			}
		}
	})
	t.Run("shared-egress fanout with crashed co-located target", func(t *testing.T) {
		// All targets on the source's node: the fan-out runs as one
		// multicast tee group. With the single-replica target crashed the
		// group faults, the per-target fallback has nowhere to re-route,
		// and the surfaced failure must leave no in-flight residue.
		p := roadrunner.New(roadrunner.WithNodes("edge"))
		t.Cleanup(p.Close)
		fns := make([]*roadrunner.Function, 3)
		for i, letter := range []string{"a", "b", "c"} {
			f, err := p.Deploy(roadrunner.FunctionSpec{Name: letter, Node: "edge"})
			if err != nil {
				t.Fatal(err)
			}
			fns[i] = f
		}
		fns[1].Instance(0).InjectFault(kernel.Crash())
		if _, _, err := p.FanoutCtx(bg, fns[0], []*roadrunner.Function{fns[1], fns[2]}, chaosPayload); err == nil {
			t.Fatal("same-node fanout with crashed target succeeded")
		}
		assertIdle(t, fns)
	})
	t.Run("poisoned channel heals in place", func(t *testing.T) {
		p, fns := newTrio(t)
		// Warm the channel, poison it, and require the next transfer to
		// recover end to end: EBADF on the stale channel is an instance
		// fault, the entry is destroyed, and the retry (same single
		// replica excluded -> second Transfer call) re-establishes.
		if err := fns[0].Produce(chaosPayload); err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.TransferCtx(bg, fns[0], fns[2]); err != nil {
			t.Fatal(err)
		}
		n := fns[0].Instance(0).PoisonChannels() + fns[2].Instance(0).PoisonChannels()
		if n == 0 {
			t.Fatal("no cached channels to poison after a warm transfer")
		}
		if err := fns[0].Produce(chaosPayload); err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.TransferCtx(bg, fns[0], fns[2]); err != nil {
			if !errors.Is(err, roadrunner.ErrInjectedIO) && !errors.Is(err, roadrunner.ErrNoHealthyInstance) {
				t.Fatalf("transfer over poisoned channel: %v", err)
			}
			// The poisoned entry is gone now; the next transfer must
			// re-establish cleanly.
			if _, _, err := p.TransferCtx(bg, fns[0], fns[2]); err != nil {
				t.Fatalf("transfer after poisoned channel was destroyed: %v", err)
			}
		}
		assertIdle(t, fns)
	})
}

// fanoutFixture deploys one source and degree single-replica targets on one
// node, so every Fanout runs the shared-egress multicast tee group.
type fanoutFixture struct {
	p       *roadrunner.Platform
	src     *roadrunner.Function
	targets []*roadrunner.Function
	all     []*roadrunner.Function
}

func newFanoutFixture(t *testing.T, degree int) *fanoutFixture {
	t.Helper()
	p := roadrunner.New(roadrunner.WithNodes("edge"), roadrunner.WithWorkers(4))
	t.Cleanup(p.Close)
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]*roadrunner.Function, degree)
	for i := range targets {
		if targets[i], err = p.Deploy(roadrunner.FunctionSpec{Name: "t" + string(rune('0'+i)), Node: "edge"}); err != nil {
			t.Fatal(err)
		}
	}
	return &fanoutFixture{p: p, src: src, targets: targets, all: append([]*roadrunner.Function{src}, targets...)}
}

// fanoutAndRelease runs one fan-out and hands back every region a success
// landed, source region included.
func (fx *fanoutFixture) fanoutAndRelease(n int) error {
	refs, _, err := fx.p.FanoutCtx(bg, fx.src, fx.targets, n)
	if err == nil {
		for i, t := range fx.targets {
			_ = t.Release(refs[i])
		}
	}
	si := fx.src.Instance(0)
	if out, oerr := si.Output(); oerr == nil {
		_ = si.Release(out)
	}
	return err
}

// heal clears instance faults on every function of the fixture.
func (fx *fanoutFixture) heal() {
	for _, f := range fx.all {
		for _, inst := range f.Instances() {
			inst.Recover()
		}
	}
}

// TestChaosMidTeeCrashConservesBaselines injects seeded crash-after-N
// budgets into the shared-egress fan-out — on the source mid-tee or on a
// target mid-drain — and asserts every conserved baseline (FD tables, page
// pool, channel cache, residency, bump allocators) at each healed
// quiescence point with the refcounted pool in play.
func TestChaosMidTeeCrashConservesBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed(t)))
	fx := newFanoutFixture(t, 4)
	nodes := []string{"edge"}

	// Warm up fault-free (memory high-water, warm socketpair channels),
	// then quiesce and snapshot.
	for i := 0; i < 3; i++ {
		if err := fx.fanoutAndRelease(chaosPayload); err != nil {
			t.Fatalf("warmup fanout: %v", err)
		}
	}
	roadrunner.TestingPruneChannels(fx.p)
	base := snapshotBaselines(t, fx.p, nodes, fx.all...)

	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		// A tee pass at this payload runs a handful of data-plane syscalls
		// per participant; a small budget lands the fault mid-tee (source)
		// or mid-drain (target).
		budget := int64(rng.Intn(12))
		if rng.Intn(2) == 0 {
			fx.src.Instance(0).CrashAfter(budget)
		} else {
			fx.targets[rng.Intn(len(fx.targets))].Instance(0).CrashAfter(budget)
		}
		// Failures are the point; successes (budget not reached, or the
		// per-target fallback re-delivered) release what they landed.
		_ = fx.fanoutAndRelease(chaosPayload)
		fx.heal()
		if err := fx.fanoutAndRelease(chaosPayload); err != nil {
			t.Fatalf("round %d: healed fanout: %v", round, err)
		}
		roadrunner.TestingPruneChannels(fx.p)
		assertBaselines(t, fx.p, nodes, base, fx.all...)
		for _, f := range fx.all {
			if got := f.Instance(0).InFlight(); got != 0 {
				t.Fatalf("round %d: %s InFlight = %d after quiescence, want 0", round, f.Instance(0).Name(), got)
			}
		}
	}
}

// TestChaosCancelDuringSharedEgressConservesBaselines cancels a same-node
// fan-out from inside the tee group's first drain: the operation must
// return context.Canceled, destroy the group's channels (draining every
// teed page reference), release whatever landed plus the produced source
// region, and conserve all baselines — then recover with a clean
// shared-egress pass.
func TestChaosCancelDuringSharedEgressConservesBaselines(t *testing.T) {
	fx := newFanoutFixture(t, 4)
	nodes := []string{"edge"}
	const n = 256 << 10

	cancelled := func() {
		ctx, cancel := context.WithCancel(context.Background())
		var once atomic.Bool
		gate := func() {
			if once.CompareAndSwap(false, true) {
				cancel()
			}
		}
		_, _, err := fx.p.FanoutCtx(ctx, fx.src, fx.targets, n, roadrunner.TestingWithGates(gate))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled shared-egress fanout = %v, want context.Canceled", err)
		}
		si := fx.src.Instance(0)
		if out, oerr := si.Output(); oerr == nil {
			_ = si.Release(out)
		}
	}
	// Warm up with one successful fan-out first, so every leg has grown its
	// wasm memory before the snapshot: the cancel races the other legs' ctx
	// polls, so whether a leg lands (and grows) in a cancelled run varies.
	if err := fx.fanoutAndRelease(n); err != nil {
		t.Fatal(err)
	}
	cancelled() // absorb warm-up (the aborted group destroys its channels)
	roadrunner.TestingPruneChannels(fx.p)
	base := snapshotBaselines(t, fx.p, nodes, fx.all...)
	cancelled()
	roadrunner.TestingPruneChannels(fx.p)
	assertBaselines(t, fx.p, nodes, base, fx.all...)

	// The plane recovers: the same fan-out lands shared-egress afterwards.
	refs, reps, err := fx.p.FanoutCtx(bg, fx.src, fx.targets, n)
	if err != nil {
		t.Fatal(err)
	}
	want := roadrunner.ExpectedChecksum(n)
	for i := range fx.targets {
		if reps[i].Mode != "kernel-multicast" {
			t.Fatalf("recovery target %d mode = %q, want kernel-multicast", i, reps[i].Mode)
		}
		sum, err := checksumAtOwner(refs[i])
		if err != nil || sum != want {
			t.Fatalf("recovery target %d checksum = %#x (%v), want %#x", i, sum, err, want)
		}
	}
}
