// Public-API tests for the staged data-plane pipeline: streaming chains,
// per-target multicast link modeling, and the pool-parallel fan-out.
package roadrunner_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// TestChainPhaseLockedAblation: the two regimes deliver identical payloads
// and identical syscall/copy accounting; only the overlap attribution
// differs. (Which critical path is shorter is a wall-clock comparison of
// two runs; it belongs to the bench sweeps, not to go test.)
func TestChainPhaseLockedAblation(t *testing.T) {
	build := func() (*roadrunner.Platform, []*roadrunner.Function) {
		p := newPlatform(t, roadrunner.WithDataHoseSize(64<<10))
		fns := make([]*roadrunner.Function, 4)
		for i := range fns {
			node := "edge"
			if i%2 == 1 {
				node = "cloud"
			}
			fns[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("f%d", i), Node: node})
		}
		return p, fns
	}
	const n = 256 << 10
	run := func(opts []roadrunner.TransferOption) roadrunner.Report {
		p, fns := build()
		ref, rep, err := p.ChainCtx(bg, n, fns, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := fns[len(fns)-1].Checksum(ref)
		if err != nil || sum != roadrunner.ExpectedChecksum(n) {
			t.Fatalf("chain corrupted: %v", err)
		}
		return rep
	}
	pipelined := run(nil)
	locked := run([]roadrunner.TransferOption{roadrunner.WithPhaseLocked(true)})

	if pipelined.Usage.Syscalls != locked.Usage.Syscalls {
		t.Fatalf("syscalls: pipelined %d != phase-locked %d", pipelined.Usage.Syscalls, locked.Usage.Syscalls)
	}
	if pipelined.Usage.TotalCopyBytes() != locked.Usage.TotalCopyBytes() {
		t.Fatalf("copies: pipelined %d != phase-locked %d",
			pipelined.Usage.TotalCopyBytes(), locked.Usage.TotalCopyBytes())
	}
	if locked.Breakdown.Overlap != 0 {
		t.Fatalf("phase-locked chain reported overlap %v", locked.Breakdown.Overlap)
	}
	if pipelined.Breakdown.Overlap <= 0 {
		t.Fatal("pipelined multi-chunk chain reported no overlap")
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
				sum, err := tails[i].Checksum(ref)
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

// TestMulticastPerTargetLinks is the mixed-link regression test: each
// multicast target's wire time must be modeled on ITS link, not the first
// remote target's (the pre-fix behavior charged every target the first
// link, inflating fast targets behind any slow sibling and vice versa).
func TestMulticastPerTargetLinks(t *testing.T) {
	p := newPlatform(t, roadrunner.WithNodes("edge", "fast", "slow"))
	p.SetLink("edge", "fast", 1000*roadrunner.Mbps, 0)
	p.SetLink("edge", "slow", 10*roadrunner.Mbps, 0)
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	tFast := deploy(t, p, roadrunner.FunctionSpec{Name: "tf", Node: "fast"})
	tSlow := deploy(t, p, roadrunner.FunctionSpec{Name: "ts", Node: "slow"})

	const n = 1_000_000
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	refs, reports, err := p.MulticastCtx(bg, src, []*roadrunner.Function{tFast, tSlow})
	if err != nil {
		t.Fatal(err)
	}
	for i, dst := range []*roadrunner.Function{tFast, tSlow} {
		sum, err := dst.Checksum(refs[i])
		if err != nil || sum != roadrunner.ExpectedChecksum(n) {
			t.Fatalf("target %d corrupted: %v", i, err)
		}
	}
	// 1 MB over a dedicated link: 8 ms at 1000 Mbps, 800 ms at 10 Mbps —
	// each target charged its own link with one flow on it.
	wantFast, wantSlow := 8*time.Millisecond, 800*time.Millisecond
	if got := reports[0].Breakdown.Network; got < wantFast*9/10 || got > wantFast*11/10 {
		t.Fatalf("fast target network = %v, want ~%v", got, wantFast)
	}
	if got := reports[1].Breakdown.Network; got < wantSlow*9/10 || got > wantSlow*11/10 {
		t.Fatalf("slow target network = %v, want ~%v", got, wantSlow)
	}

	// WithFlows overrides the per-link sharing degree (previously silently
	// ignored): doubling the flow count doubles each link's transmit time.
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	_, reports2, err := p.MulticastCtx(bg, src, []*roadrunner.Function{tFast, tSlow}, roadrunner.WithFlows(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range reports2 {
		if got, base := reports2[i].Breakdown.Network, reports[i].Breakdown.Network; got < base*19/10 || got > base*21/10 {
			t.Fatalf("target %d with 2 flows: network %v, want ~2x %v", i, got, base)
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

// TestFanoutRunsOnWorkerPool: Fanout routes its deliveries through the
// platform's bounded pool (sharing the single produced payload), keeps
// report order, and still models link sharing across the fan-out.
func TestFanoutRunsOnWorkerPool(t *testing.T) {
	p := newPlatform(t)
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	targets := make([]*roadrunner.Function, 6)
	for i := range targets {
		targets[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("t%d", i), Node: "cloud"})
	}
	before := p.SchedulerStats().Submitted
	const n = 64 << 10
	_, reports, err := p.FanoutCtx(bg, src, targets, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(targets) {
		t.Fatalf("reports = %d, want %d", len(reports), len(targets))
	}
	for i, rep := range reports {
		if rep.Mode != "network" {
			t.Fatalf("report %d mode = %q", i, rep.Mode)
		}
		if rep.Bytes != n {
			t.Fatalf("report %d bytes = %d", i, rep.Bytes)
		}
	}
	if got := p.SchedulerStats().Submitted - before; got != int64(len(targets)) {
		t.Fatalf("fanout submitted %d pool tasks, want %d", got, len(targets))
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
// comparison belongs in internal/experiments with repeated samples and both
// arms either producing or not.
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
		if _, sequential[i], err = p2.TransferCtx(bg, src2, dst, roadrunner.WithFlows(degree)); err != nil {
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
