// Public-API tests for the staged data-plane pipeline: streaming chains,
// multicast link modeling, and the pool-parallel fan-out.
package roadrunner_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
)

// TestChainMultiChunkOverlap: a four-function chain whose payload spans
// several hose chunks delivers checksum-clean bytes on and across nodes.
// Cross-node hops cross in hose chunks and earn a positive Overlap credit
// that keeps the critical path above zero; a same-node hop moves the
// payload in one write, so an all-local chain has no chunk pipeline and
// reports no overlap.
func TestChainMultiChunkOverlap(t *testing.T) {
	const n = 256 << 10 // four 64 KiB hose chunks per hop
	for _, tc := range []struct {
		name      string
		nodes     [4]string
		chunkWise bool
	}{
		{"alternating-nodes", [4]string{"edge", "cloud", "edge", "cloud"}, true},
		{"same-node", [4]string{"edge", "edge", "edge", "edge"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPlatform(t, roadrunner.TestingWithDataHoseSize(64<<10))
			fns := make([]*roadrunner.Function, len(tc.nodes))
			for i, node := range tc.nodes {
				fns[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("f%d", i), Node: node})
			}
			ref, rep, err := p.ChainCtx(bg, n, fns)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := checksumAtOwner(ref)
			if err != nil {
				t.Fatal(err)
			}
			if want := roadrunner.ExpectedChecksum(n); sum != want {
				t.Fatalf("checksum %#x, want %#x", sum, want)
			}
			if rep.Bytes != 3*n {
				t.Fatalf("chain bytes = %d, want %d", rep.Bytes, 3*n)
			}
			if !tc.chunkWise {
				if rep.Breakdown.Overlap != 0 {
					t.Fatalf("single-write chain reported overlap %v", rep.Breakdown.Overlap)
				}
				return
			}
			if rep.Breakdown.Overlap <= 0 {
				t.Fatalf("multi-chunk chain reported no overlap (%v)", rep.Breakdown.Overlap)
			}
			if rep.Breakdown.Total() <= 0 {
				t.Fatalf("overlap %v swallowed the whole critical path", rep.Breakdown.Overlap)
			}
		})
	}
}

// TestConcurrentSharedInteriorChainsPublic drives several streaming chains
// through one shared interior function concurrently (the public-API face of
// the core-level stress test) and verifies every delivery.
func TestConcurrentSharedInteriorChainsPublic(t *testing.T) {
	p := newPlatform(t)
	interior := deploy(t, p, roadrunner.FunctionSpec{Name: "hub", Node: "edge"})
	const chains, rounds = 4, 3
	heads := make([]*roadrunner.Function, chains)
	tails := make([]*roadrunner.Function, chains)
	for i := 0; i < chains; i++ {
		heads[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("h%d", i), Node: "edge"})
		tails[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("t%d", i), Node: "cloud"})
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for i := 0; i < chains; i++ {
			i := i
			n := 32<<10 + 512*i // per-chain payload, checksum-distinguishable
			wg.Add(1)
			go func() {
				defer wg.Done()
				ref, _, err := p.ChainCtx(bg, n, []*roadrunner.Function{heads[i], interior, tails[i]})
				if err != nil {
					t.Errorf("chain %d: %v", i, err)
					return
				}
				sum, err := checksumAtOwner(ref)
				if err != nil {
					t.Errorf("chain %d checksum: %v", i, err)
					return
				}
				if want := roadrunner.ExpectedChecksum(n); sum != want {
					t.Errorf("chain %d: checksum %#x, want %#x", i, sum, want)
				}
			}()
		}
		wg.Wait()
	}
}

// TestMulticastTargetsOwnDeliveries: every multicast target owns its
// delivery and receives the exact payload. How the cross-node legs share
// the link is TestMulticastSharedLinkSplitsFlows here and internal/core's
// TestMulticastMixedSetSplits.
func TestMulticastTargetsOwnDeliveries(t *testing.T) {
	p := newPlatform(t, roadrunner.WithNodes("edge", "n1", "n2"))
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	t1 := deploy(t, p, roadrunner.FunctionSpec{Name: "t1", Node: "n1"})
	t2 := deploy(t, p, roadrunner.FunctionSpec{Name: "t2", Node: "n2"})

	const n = 1_000_000
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	refs, _, err := p.MulticastCtx(bg, src, []*roadrunner.Function{t1, t2})
	if err != nil {
		t.Fatal(err)
	}
	for i, dst := range []*roadrunner.Function{t1, t2} {
		if owner, _ := roadrunner.TestingOwner(refs[i].Instance()); owner != dst {
			t.Fatalf("target %d: ref not owned by %s", i, dst.Name())
		}
		sum, err := checksumAtOwner(refs[i])
		if err != nil || sum != roadrunner.ExpectedChecksum(n) {
			t.Fatalf("target %d corrupted: %v", i, err)
		}
	}
}

// TestMulticastSharedLinkSplitsFlows: targets reached over the SAME link
// share its bandwidth (default flow count = targets per link).
func TestMulticastSharedLinkSplitsFlows(t *testing.T) {
	p := newPlatform(t, roadrunner.WithNodes("edge", "cloud"), roadrunner.WithLink(100*roadrunner.Mbps, 0))
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	targets := make([]*roadrunner.Function, 2)
	for i := range targets {
		targets[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("t%d", i), Node: "cloud"})
	}
	const n = 1_000_000
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	_, reports, err := p.MulticastCtx(bg, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	// 1 MB at 100 Mbps is 80 ms; two flows sharing the link halve the
	// per-flow bandwidth: 160 ms each.
	want := 160 * time.Millisecond
	for i, rep := range reports {
		if got := rep.Breakdown.Network; got < want*9/10 || got > want*11/10 {
			t.Fatalf("target %d network = %v, want ~%v", i, got, want)
		}
	}
}

// TestMulticastMixedSetChargesRemoteLegs: a cast to one co-located and
// two cross-node targets charges each cross-node leg the link shared by
// those two legs alone; the co-located leg crosses no wire and takes no
// share of it.
func TestMulticastMixedSetChargesRemoteLegs(t *testing.T) {
	p := newPlatform(t, roadrunner.WithNodes("edge", "cloud"), roadrunner.WithLink(100*roadrunner.Mbps, 0))
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	targets := []*roadrunner.Function{
		deploy(t, p, roadrunner.FunctionSpec{Name: "near", Node: "edge"}),
		deploy(t, p, roadrunner.FunctionSpec{Name: "far1", Node: "cloud"}),
		deploy(t, p, roadrunner.FunctionSpec{Name: "far2", Node: "cloud"}),
	}
	const n = 1_000_000
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	_, reports, err := p.MulticastCtx(bg, src, targets)
	if err != nil {
		t.Fatal(err)
	}
	if got := reports[0].Breakdown.Network; reports[0].Mode != "kernel-multicast" || got != 0 {
		t.Fatalf("co-located leg: mode %q, network %v, want kernel-multicast and no wire time", reports[0].Mode, got)
	}
	// Two flows on 100 Mbps: 160 ms each for 1 MB, as in
	// TestMulticastSharedLinkSplitsFlows.
	want := 160 * time.Millisecond
	for i := 1; i < len(reports); i++ {
		if got := reports[i].Breakdown.Network; reports[i].Mode != "network-multicast" || got < want*9/10 || got > want*11/10 {
			t.Fatalf("leg %d: mode %q, network %v, want network-multicast and ~%v", i, reports[i].Mode, got, want)
		}
	}
}

// TestMulticastRejectsForcedMode: multicast is network-path only; forcing a
// mechanism must fail loudly instead of being silently ignored.
func TestMulticastRejectsForcedMode(t *testing.T) {
	p := newPlatform(t)
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	dst := deploy(t, p, roadrunner.FunctionSpec{Name: "dst", Node: "cloud"})
	if err := src.Produce(1 << 10); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []roadrunner.Mode{roadrunner.ModeUserSpace, roadrunner.ModeKernelSpace} {
		if _, _, err := p.MulticastCtx(bg, src, []*roadrunner.Function{dst}, roadrunner.WithMode(mode)); !errors.Is(err, roadrunner.ErrModeUnavailable) {
			t.Fatalf("forced %v multicast = %v, want ErrModeUnavailable", mode, err)
		}
	}
	// ModeNetwork and ModeAuto are both fine.
	if _, _, err := p.MulticastCtx(bg, src, []*roadrunner.Function{dst}, roadrunner.WithMode(roadrunner.ModeNetwork)); err != nil {
		t.Fatalf("explicit network multicast: %v", err)
	}
}

// TestMulticastLegsFeedHealth: a multicast leg is a delivery like any other,
// so a landed leg moves its target's health FSM exactly as a successful Xfer
// does. One instance-fault strike leaves the target Suspect; a successful
// Xfer clears it, and so must a successful multicast (legs are observed,
// never retried).
func TestMulticastLegsFeedHealth(t *testing.T) {
	p := newPlatform(t)
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	dst := deploy(t, p, roadrunner.FunctionSpec{Name: "dst", Node: "edge"})
	inst := dst.Instance(0)
	const n = 64 << 10
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	strike := func() {
		t.Helper()
		inst.InjectFault(kernel.Crash())
		if _, _, err := p.TransferCtx(bg, src, dst); !errors.Is(err, roadrunner.ErrNoHealthyInstance) {
			t.Fatalf("transfer into the crashed only replica = %v, want ErrNoHealthyInstance", err)
		}
		inst.Recover()
		if got := inst.Health(); got != roadrunner.HealthSuspect {
			t.Fatalf("after one strike Health = %v, want suspect", got)
		}
	}

	strike()
	ref, _, err := p.TransferCtx(bg, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Release(ref); err != nil {
		t.Fatal(err)
	}
	afterXfer := inst.Health()
	if afterXfer == roadrunner.HealthSuspect {
		t.Fatalf("a successful Xfer left the struck target suspect")
	}

	strike()
	refs, _, err := p.MulticastCtx(bg, src, []*roadrunner.Function{dst})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Release(refs[0]); err != nil {
		t.Fatal(err)
	}
	if got := inst.Health(); got != afterXfer {
		t.Fatalf("after a successful multicast Health = %v, want %v as after a successful Xfer", got, afterXfer)
	}
}

// TestMulticastFailureBeforeAnnounce pins the fan-out's pre-announce
// contract: a source stage that fails before announcing its output — here a
// pinned source region beyond the guest's linear memory — dispatches no leg
// and touches no channel. The multicast returns that cause, descriptors,
// pool pages and residency stay at baseline, and every target's channel
// stays warm: the next multicast to the same targets is all cache hits.
func TestMulticastFailureBeforeAnnounce(t *testing.T) {
	p := newPlatform(t)
	nodes := []string{"edge", "cloud"}
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	targets := []*roadrunner.Function{
		deploy(t, p, roadrunner.FunctionSpec{Name: "near", Node: "edge"}),
		deploy(t, p, roadrunner.FunctionSpec{Name: "far", Node: "cloud"}),
	}
	const n = 256 << 10
	cast := func() {
		t.Helper()
		if err := src.Produce(n); err != nil {
			t.Fatal(err)
		}
		refs, _, err := p.MulticastCtx(bg, src, targets)
		if err != nil {
			t.Fatal(err)
		}
		for i, tgt := range targets {
			if sum, err := checksumAtOwner(refs[i]); err != nil || sum != roadrunner.ExpectedChecksum(n) {
				t.Fatalf("target %d checksum %#x (%v)", i, sum, err)
			}
			if err := tgt.Release(refs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	cast() // caches both targets' channels
	fns := append([]*roadrunner.Function{src}, targets...)
	base := snapshotBaselines(t, p, nodes, fns...)

	leg := roadrunner.TestingWithGates(func() { t.Error("a leg ran for a source that never announced") })
	_, _, err := p.MulticastCtx(bg, src, targets, roadrunner.WithSourceRef(roadrunner.DataRef{Ptr: 1 << 31, Len: 4096}), leg)
	if !errors.Is(err, wasm.TrapOutOfBounds) {
		t.Fatalf("error = %v, want the source's out-of-bounds view", err)
	}
	assertBaselines(t, p, nodes, base, fns...)

	stats := p.ChannelStats()
	cast()
	if got := p.ChannelStats(); got.Hits != stats.Hits+int64(len(targets)) || got.Misses != stats.Misses {
		t.Fatalf("channel stats %+v after the failure, %+v after one more multicast: want %d hits", stats, got, len(targets))
	}
}

// TestFanoutIsOneCast: a fan-out is one produce and one cast. Six remote
// targets land as network-multicast legs, in report order, and the Fan
// submits no pool task of its own: the one-shot form submits none, and a
// one-node Fan plan submits exactly one — its body — as a one-node Xfer plan
// does.
func TestFanoutIsOneCast(t *testing.T) {
	p := newPlatform(t)
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	targets := make([]*roadrunner.Function, 6)
	for i := range targets {
		targets[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("t%d", i), Node: "cloud"})
	}
	release := func(refs []roadrunner.DataRef) {
		t.Helper()
		for _, ref := range refs {
			if err := ref.Instance().Release(ref); err != nil {
				t.Fatal(err)
			}
		}
	}
	const n = 64 << 10
	before := p.SchedulerStats().Submitted
	refs, reports, err := p.FanoutCtx(bg, src, targets, n)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.SchedulerStats().Submitted - before; got != 0 {
		t.Fatalf("FanoutCtx submitted %d pool tasks, want none", got)
	}
	if len(refs) != len(targets) || len(reports) != len(targets) {
		t.Fatalf("%d refs, %d reports for %d targets", len(refs), len(reports), len(targets))
	}
	for i, rep := range reports {
		if owner, _ := roadrunner.TestingOwner(refs[i].Instance()); owner != targets[i] {
			t.Fatalf("report %d: delivery owned by %s, want %s", i, owner.Name(), targets[i].Name())
		}
		if rep.Mode != "network-multicast" || rep.Bytes != n {
			t.Fatalf("report %d: mode %q, %d bytes, want network-multicast and %d", i, rep.Mode, rep.Bytes, n)
		}
	}
	release(refs)

	submitted := func(build func(pl *roadrunner.Plan) *roadrunner.PlanNode) int64 {
		t.Helper()
		before := p.SchedulerStats().Submitted
		job, node, err := submitOne(bg, p, build)
		if err != nil {
			t.Fatal(err)
		}
		res, err := job.Wait(bg)
		if err != nil {
			t.Fatal(err)
		}
		nr := res.Node(node)
		if nr.Err != nil {
			t.Fatal(nr.Err)
		}
		release(nr.Refs)
		return p.SchedulerStats().Submitted - before
	}
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	xfer := submitted(func(pl *roadrunner.Plan) *roadrunner.PlanNode { return pl.Xfer(src, targets[0]) })
	fan := submitted(func(pl *roadrunner.Plan) *roadrunner.PlanNode { return pl.Fan(src, targets, n) })
	if xfer != 1 || fan != 1 {
		t.Fatalf("a one-node plan submitted %d pool tasks for an Xfer, %d for a Fan; want 1 and 1", xfer, fan)
	}
}

// TestFanoutSameVMTargetTakesUserSpace: no tee reaches the producer's own
// VM, so a fan-out target routed there takes a user-space delivery while
// the other targets share the cast, and every target lands the payload.
// Under a forced ModeUserSpace every target is such a delivery, one attempt
// at the instance the cast's routing chose: round-robin placement, routing
// each target once per fan-out, takes a replicated target to each of its
// replicas in turn.
func TestFanoutSameVMTargetTakesUserSpace(t *testing.T) {
	const n = 64 << 10
	check := func(t *testing.T, refs []roadrunner.DataRef, reports []roadrunner.Report, targets []*roadrunner.Function, modes ...string) {
		t.Helper()
		for i, want := range modes {
			if reports[i].Mode != want {
				t.Errorf("target %s: mode %q, want %q", targets[i].Name(), reports[i].Mode, want)
			}
			if sum, err := checksumAtOwner(refs[i]); err != nil || sum != roadrunner.ExpectedChecksum(n) {
				t.Errorf("target %s: checksum %#x (%v)", targets[i].Name(), sum, err)
			}
		}
	}
	t.Run("auto", func(t *testing.T) {
		p := newPlatform(t)
		src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
		targets := []*roadrunner.Function{
			deploy(t, p, roadrunner.FunctionSpec{Name: "vm", Node: "edge", ShareVMWith: src}),
			deploy(t, p, roadrunner.FunctionSpec{Name: "near", Node: "edge"}),
			deploy(t, p, roadrunner.FunctionSpec{Name: "far", Node: "cloud"}),
		}
		refs, reports, err := p.FanoutCtx(bg, src, targets, n)
		if err != nil {
			t.Fatal(err)
		}
		check(t, refs, reports, targets, "user", "kernel-multicast", "network-multicast")
	})
	t.Run("forced-user-space", func(t *testing.T) {
		p := newPlatform(t, roadrunner.WithPlacement(roadrunner.PlacementRoundRobin))
		src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
		targets := []*roadrunner.Function{
			deploy(t, p, roadrunner.FunctionSpec{Name: "pool", Node: "edge", ShareVMWith: src, Replicas: 2}),
		}
		seen := map[*roadrunner.Instance]bool{}
		for range 2 {
			refs, reports, err := p.FanoutCtx(bg, src, targets, n, roadrunner.WithMode(roadrunner.ModeUserSpace))
			if err != nil {
				t.Fatal(err)
			}
			check(t, refs, reports, targets, "user")
			seen[refs[0].Instance()] = true
			out, err := src.Instance(0).Output()
			if err == nil {
				err = src.Instance(0).Release(out)
			}
			if err == nil {
				err = refs[0].Instance().Release(refs[0])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(seen) != 2 {
			t.Fatalf("two fan-outs landed on %d replica(s), want both", len(seen))
		}
	})
}

// TestFanoutFaultFallsBackPerTarget: a cast fails whole, so when the
// replica a fan-out routed a target to has crashed, every target retries
// alone with retry-with-exclusion — as a unicast — and the struck target
// lands on its surviving replica. Round-robin placement routes the second
// fan-out to the replica the first did not use, the crashed one. A cancel
// during the fallback fails the fan-out with context.Canceled and hands
// back the delivery that had already landed and the produced region.
func TestFanoutFaultFallsBackPerTarget(t *testing.T) {
	const n = 64 << 10
	// setup deploys the pair, lands one fan-out and crashes the replica it
	// did not use; it returns the survivor.
	setup := func(t *testing.T) (*roadrunner.Platform, *roadrunner.Function, []*roadrunner.Function, *roadrunner.Instance) {
		p := newPlatform(t, roadrunner.WithPlacement(roadrunner.PlacementRoundRobin))
		src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
		targets := []*roadrunner.Function{
			deploy(t, p, roadrunner.FunctionSpec{Name: "pool", Node: "edge", Replicas: 2}),
			deploy(t, p, roadrunner.FunctionSpec{Name: "far", Node: "cloud"}),
		}
		refs, _, err := p.FanoutCtx(bg, src, targets, n)
		if err != nil {
			t.Fatal(err)
		}
		survivor := refs[0].Instance()
		doomed := targets[0].Instance(0)
		if doomed == survivor {
			doomed = targets[0].Instance(1)
		}
		doomed.InjectFault(kernel.Crash())
		return p, src, targets, survivor
	}
	t.Run("fallback", func(t *testing.T) {
		p, src, targets, survivor := setup(t)
		refs, reports, err := p.FanoutCtx(bg, src, targets, n)
		if err != nil {
			t.Fatal(err)
		}
		if refs[0].Instance() != survivor {
			t.Fatalf("delivery landed on %s, want the survivor %s", refs[0].Instance().Name(), survivor.Name())
		}
		for i, want := range []string{"kernel", "network"} {
			if reports[i].Mode != want {
				t.Errorf("target %s: mode %q, want the fallback's %q", targets[i].Name(), reports[i].Mode, want)
			}
			if sum, err := checksumAtOwner(refs[i]); err != nil || sum != roadrunner.ExpectedChecksum(n) {
				t.Fatalf("target %s: checksum %#x (%v)", targets[i].Name(), sum, err)
			}
		}
	})
	t.Run("cancel-during-fallback", func(t *testing.T) {
		// Count the target drains a fan-out on a fresh setup runs: the
		// last is the fallback's delivery to the last target.
		var ingresses atomic.Int64
		p, src, targets, survivor := setup(t)
		gate := roadrunner.TestingWithGates(func() { ingresses.Add(1) })
		if _, _, err := p.FanoutCtx(bg, src, targets, n, gate); err != nil {
			t.Fatal(err)
		}
		last := ingresses.Load()
		if last < 2 {
			t.Fatalf("the fallback fan-out ran %d target drains, want at least the two deliveries", last)
		}
		p, src, targets, survivor = setup(t)
		// The cancel destroys the channels it interrupts, so the conserved
		// quantities here are the guest heaps the fan-out allocated in.
		insts := []*roadrunner.Instance{src.Instance(0), survivor, targets[1].Instance(0)}
		probes := func() (out []uint32) {
			for _, inst := range insts {
				out = append(out, instanceProbe(t, inst))
			}
			return out
		}
		base := probes()
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		var k atomic.Int64
		gate = roadrunner.TestingWithGates(func() {
			if k.Add(1) == last {
				cancel()
			}
		})
		_, _, err := p.FanoutCtx(ctx, src, targets, n, gate)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fan-out cancelled during its fallback = %v, want context.Canceled", err)
		}
		if k.Load() != last {
			t.Fatalf("the cancelled fan-out ran %d target drains, want %d", k.Load(), last)
		}
		if now := probes(); !slices.Equal(now, base) {
			t.Fatalf("next allocation at src, survivor, far = %#x, want the baseline %#x", now, base)
		}
	})
}

// TestFanoutMatchesMulticast: Fan is Produce + Cast, so FanoutCtx and
// MulticastCtx to the same target set report the same Mode and wire time
// per leg. In the mixed set only the remote leg crosses the link, alone:
// 1 MiB on the default 100 Mbps / 1 ms link is 84.9 ms, not the 168.8 ms of
// two flows.
func TestFanoutMatchesMulticast(t *testing.T) {
	const n = 1 << 20
	for _, tc := range []struct {
		name    string
		nodes   []string
		network []time.Duration
	}{
		{"co-located+remote", []string{"edge", "cloud"}, []time.Duration{0, 84886080 * time.Nanosecond}},
		{"remote+remote", []string{"cloud", "cloud"}, []time.Duration{168772160 * time.Nanosecond, 168772160 * time.Nanosecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPlatform(t)
			src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
			targets := make([]*roadrunner.Function, len(tc.nodes))
			for i, node := range tc.nodes {
				targets[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("t%d", i), Node: node})
			}
			_, fan, err := p.FanoutCtx(bg, src, targets, n)
			if err != nil {
				t.Fatal(err)
			}
			_, cast, err := p.MulticastCtx(bg, src, targets)
			if err != nil {
				t.Fatal(err)
			}
			for i := range targets {
				if fan[i].Mode != cast[i].Mode || fan[i].Breakdown.Network != cast[i].Breakdown.Network {
					t.Errorf("leg %d: fan-out %s / %v on the wire, multicast %s / %v",
						i, fan[i].Mode, fan[i].Breakdown.Network, cast[i].Mode, cast[i].Breakdown.Network)
				}
				if got := fan[i].Breakdown.Network; got != tc.network[i] {
					t.Errorf("leg %d: %v on the wire, want %v", i, got, tc.network[i])
				}
			}
		})
	}
}

// TestFanPlanOnOneWorker: a Fan node's body is one pool task that waits on
// none of its own, so a one-worker platform runs a plan whose Fan waits
// behind an Xfer. The watchdog names a hang; it bounds nothing else.
func TestFanPlanOnOneWorker(t *testing.T) {
	p := newPlatform(t, roadrunner.WithWorkers(1))
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	targets := []*roadrunner.Function{
		deploy(t, p, roadrunner.FunctionSpec{Name: "near", Node: "edge"}),
		deploy(t, p, roadrunner.FunctionSpec{Name: "far", Node: "cloud"}),
	}
	const n = 64 << 10
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	pl := roadrunner.NewPlan()
	first := pl.Xfer(src, targets[1])
	fan := pl.Fan(src, targets, n).After(first)
	job, err := p.Submit(bg, pl)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(time.Minute):
		t.Fatal("a Fan plan on one worker did not complete")
	}
	res, err := job.Wait(bg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for i, ref := range res.Node(fan).Refs {
		if sum, err := checksumAtOwner(ref); err != nil || sum != roadrunner.ExpectedChecksum(n) {
			t.Fatalf("target %d: checksum %#x (%v)", i, sum, err)
		}
	}
}

// TestFanoutParallelThroughput pins the structural half of the fan-out's
// aggregate-throughput claim: against a strictly sequential delivery loop
// over the same population, the pool-parallel fan-out delivers the same
// bytes to every target with the same copy volume — one copy per target,
// none on the source side — so parallelism moves when the work happens,
// never how much.
//
// The wall-clock half that used to live here (fan-out at least 10% faster
// than the loop) is gone from go test (ROADMAP item 0). It was also
// asymmetric: it timed Fanout, which PRODUCES the 512 KiB payload at
// interpreter speed inside the timed region (~4.4 ms), against a loop whose
// Produce ran before the clock started (~6.9 ms for all eight deliveries),
// so the fan-out lost by construction on any core count. A rebuilt
// comparison belongs in the `bench` fan-out sweep (ROADMAP item 2), with
// repeated samples and both arms either producing or not.
func TestFanoutParallelThroughput(t *testing.T) {
	const degree, n = 8, 512 << 10
	build := func() (*roadrunner.Platform, *roadrunner.Function, []*roadrunner.Function) {
		p := newPlatform(t)
		src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
		targets := make([]*roadrunner.Function, degree)
		for i := range targets {
			targets[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("t%d", i), Node: "cloud"})
		}
		// Prime channels so both arms are warm.
		if _, _, err := p.FanoutCtx(bg, src, targets, n); err != nil {
			t.Fatal(err)
		}
		return p, src, targets
	}
	total := func(reports []roadrunner.Report) (u roadrunner.Usage) {
		for _, rep := range reports {
			if rep.Bytes != n {
				t.Fatalf("report bytes = %d, want %d", rep.Bytes, n)
			}
			u.UserCopyBytes += rep.Usage.UserCopyBytes
			u.KernelCopyBytes += rep.Usage.KernelCopyBytes
		}
		return u
	}

	p1, src1, targets1 := build()
	_, parallel, err := p1.FanoutCtx(bg, src1, targets1, n)
	if err != nil {
		t.Fatal(err)
	}

	p2, src2, targets2 := build()
	if err := src2.Produce(n); err != nil {
		t.Fatal(err)
	}
	sequential := make([]roadrunner.Report, degree)
	for i, dst := range targets2 {
		if _, sequential[i], err = p2.TransferCtx(bg, src2, dst); err != nil {
			t.Fatal(err)
		}
	}

	par, seq := total(parallel), total(sequential)
	if par.UserCopyBytes != seq.UserCopyBytes || par.KernelCopyBytes != seq.KernelCopyBytes {
		t.Fatalf("fan-out copied %d user + %d kernel bytes, sequential loop %d + %d",
			par.UserCopyBytes, par.KernelCopyBytes, seq.UserCopyBytes, seq.KernelCopyBytes)
	}
	if par.UserCopyBytes != degree*n {
		t.Fatalf("fan-out user copy bytes = %d, want one copy per target (%d)", par.UserCopyBytes, degree*n)
	}
}

// BenchmarkOneTarget16M delivers 16 MiB to one target over a warm channel,
// cross-node and on one node: as a unicast (TransferCtx), as a one-target
// cast (MulticastCtx) and, cross-node, as a degree-1 fan-out, whose op
// includes its 16 MiB produce. Every op hands its regions back.
func BenchmarkOneTarget16M(b *testing.B) {
	const n = 16 << 20
	for _, tc := range []struct{ name, node string }{{"remote", "cloud"}, {"same-node", "edge"}} {
		p := roadrunner.New()
		src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "edge"})
		if err != nil {
			b.Fatal(err)
		}
		dst, err := p.Deploy(roadrunner.FunctionSpec{Name: "dst", Node: tc.node})
		if err != nil {
			b.Fatal(err)
		}
		if err := src.Produce(n); err != nil {
			b.Fatal(err)
		}
		targets := []*roadrunner.Function{dst}
		ops := []struct {
			name string
			op   func() (roadrunner.DataRef, error)
		}{
			{"unicast", func() (roadrunner.DataRef, error) {
				ref, _, err := p.TransferCtx(bg, src, dst)
				return ref, err
			}},
			{"cast", func() (roadrunner.DataRef, error) {
				refs, _, err := p.MulticastCtx(bg, src, targets)
				if err != nil {
					return roadrunner.DataRef{}, err
				}
				return refs[0], nil
			}},
		}
		if tc.node != "edge" {
			ops = append(ops, struct {
				name string
				op   func() (roadrunner.DataRef, error)
			}{"fanout", func() (roadrunner.DataRef, error) {
				refs, _, err := p.FanoutCtx(bg, src, targets, n)
				if err != nil {
					return roadrunner.DataRef{}, err
				}
				out, err := src.Instance(0).Output()
				if err == nil {
					err = src.Instance(0).Release(out)
				}
				return refs[0], err
			}})
		}
		for _, o := range ops {
			b.Run(tc.name+"/"+o.name, func(b *testing.B) {
				for i := -1; i < b.N; i++ {
					if i == 0 {
						b.ResetTimer()
					}
					ref, err := o.op()
					if err != nil {
						b.Fatal(err)
					}
					if err := dst.Release(ref); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		p.Close()
	}
}
