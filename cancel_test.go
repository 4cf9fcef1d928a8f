// Cancellation conservation tests: a context cancelled mid-operation must
// abort with context.Canceled AND leave every data-plane baseline exact —
// FD tables, the kernel page pool, the channel-cache active count, account
// residency, and the guests' bump allocators (pinned interior refs freed).
//
// Determinism comes from the pipeline gate (TestingWithGates): the gate
// callback runs in the ingress goroutine while the payload is on the wire
// — queued in the channel, neither VM lock held — so firing cancel inside
// it guarantees the cancellation lands exactly at the "on the wire" stage
// boundary. Conservation is asserted steady-state: every scenario runs
// twice, with baselines captured between the runs, so the first run absorbs
// one-time warm-up (cached channels of the hops that completed) and any
// per-occurrence leak of the second run shows up as a baseline delta.
// All tests here run under -race in CI.
package roadrunner_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// baselines is a point-in-time snapshot of every conserved quantity.
type baselines struct {
	fds      map[string][]int
	resident map[string][]int64
	pool     map[string]int64
	active   int64
	// probe is each probed function's next-allocation pointer, proving the
	// guest bump allocators rewound (a leaked interior ref would push it).
	probe map[string]uint32
}

// snapshotBaselines captures the conserved quantities across fns and nodes.
func snapshotBaselines(t *testing.T, p *roadrunner.Platform, nodes []string, fns ...*roadrunner.Function) baselines {
	t.Helper()
	b := baselines{
		fds:      make(map[string][]int),
		resident: make(map[string][]int64),
		pool:     make(map[string]int64),
		probe:    make(map[string]uint32),
	}
	for _, f := range fns {
		b.fds[f.Name()] = roadrunner.TestingInstanceFDs(f)
		b.resident[f.Name()] = roadrunner.TestingInstanceResident(f)
		b.probe[f.Name()] = allocProbe(t, f)
	}
	for _, n := range nodes {
		b.pool[n] = roadrunner.TestingPoolResident(p, n)
	}
	b.active = int64(p.ChannelStats().Active)
	return b
}

// allocProbe returns the address a fresh allocation would land at in f's
// active instance, without disturbing the heap (produce then release).
func allocProbe(t *testing.T, f *roadrunner.Function) uint32 {
	t.Helper()
	return instanceProbe(t, f.ActiveInstance())
}

// instanceProbe is allocProbe on one instance. The probe's produce makes
// inst its function's active instance.
func instanceProbe(t *testing.T, inst *roadrunner.Instance) uint32 {
	t.Helper()
	if err := inst.Produce(64); err != nil {
		t.Fatalf("probe produce at %s: %v", inst.Name(), err)
	}
	out, err := inst.Output()
	if err != nil {
		t.Fatalf("probe output at %s: %v", inst.Name(), err)
	}
	if err := inst.Release(out); err != nil {
		t.Fatalf("probe release at %s: %v", inst.Name(), err)
	}
	return out.Ptr
}

// assertBaselines compares a fresh snapshot against b.
func assertBaselines(t *testing.T, p *roadrunner.Platform, nodes []string, b baselines, fns ...*roadrunner.Function) {
	t.Helper()
	now := snapshotBaselines(t, p, nodes, fns...)
	for name, want := range b.fds {
		got := now.fds[name]
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s instance %d: FDs = %d, want baseline %d", name, i, got[i], want[i])
			}
		}
	}
	for name, want := range b.resident {
		got := now.resident[name]
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s instance %d: resident = %d, want baseline %d", name, i, got[i], want[i])
			}
		}
	}
	for n, want := range b.pool {
		if got := now.pool[n]; got != want {
			t.Errorf("node %s: page-pool resident = %d, want baseline %d", n, got, want)
		}
	}
	if now.active != b.active {
		t.Errorf("channel-cache active = %d, want baseline %d", now.active, b.active)
	}
	for name, want := range b.probe {
		if got := now.probe[name]; got != want {
			t.Errorf("%s: alloc probe = %#x, want baseline %#x (bump heap not rewound)", name, got, want)
		}
	}
}

// TestCancelMidTransferConservesBaselines cancels a network transfer while
// its payload is on the wire: the transfer must return context.Canceled,
// destroy the poisoned channel, drain its pages back to the pool and leave
// the target's allocator untouched — run twice, the second run against the
// first's steady state.
func TestCancelMidTransferConservesBaselines(t *testing.T) {
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"))
	defer p.Close()
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := p.Deploy(roadrunner.FunctionSpec{Name: "dst", Node: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 256 << 10
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}

	nodes := []string{"edge", "cloud"}
	cancelled := func() {
		ctx, cancel := context.WithCancel(context.Background())
		_, _, err := p.TransferCtx(ctx, src, dst, roadrunner.TestingWithGates(cancel))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled transfer = %v, want context.Canceled", err)
		}
	}
	cancelled() // absorb warm-up (none survives: the poisoned channel dies)
	base := snapshotBaselines(t, p, nodes, src, dst)
	cancelled()
	assertBaselines(t, p, nodes, base, src, dst)

	// The plane recovers: the same pair transfers cleanly afterwards (the
	// allocator probes retargeted src's registered output, so produce anew).
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	ref, rep, err := p.TransferCtx(bg, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "network" {
		t.Fatalf("recovery mode = %q", rep.Mode)
	}
	sum, err := checksumAtOwner(ref)
	if err != nil {
		t.Fatal(err)
	}
	if want := roadrunner.ExpectedChecksum(n); sum != want {
		t.Fatalf("recovery checksum = %#x, want %#x", sum, want)
	}
}

// TestCancelMidChainReleasesInteriorRefs cancels a 5-hop chain while hop 3
// is on the wire: the chain must return context.Canceled naming hop 3, free
// every pinned interior ref (the head's produce and hops 1-2's deliveries —
// proven by the allocator probes) and conserve FD/page-pool/channel-cache
// baselines exactly.
func TestCancelMidChainReleasesInteriorRefs(t *testing.T) {
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"))
	defer p.Close()
	// Placement e,e,c,e,c,e: hop 1 kernel, hops 2-5 network, so hop 3
	// (f2->f3) crosses the wire.
	nodes := []string{"edge", "edge", "cloud", "edge", "cloud", "edge"}
	fns := make([]*roadrunner.Function, len(nodes))
	for i, node := range nodes {
		var err error
		fns[i], err = p.Deploy(roadrunner.FunctionSpec{Name: "f" + string(rune('0'+i)), Node: node})
		if err != nil {
			t.Fatal(err)
		}
	}

	const n = 64 << 10
	cancelled := func() {
		ctx, cancel := context.WithCancel(context.Background())
		var ingresses atomic.Int64
		gate := func() {
			if ingresses.Add(1) == 3 { // hops 1 and 2 landed; hop 3 is on the wire
				cancel()
			}
		}
		_, _, err := p.ChainCtx(ctx, n, fns, roadrunner.TestingWithGates(gate))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled chain = %v, want context.Canceled", err)
		}
		if !strings.Contains(err.Error(), "hop 3/5") {
			t.Fatalf("cancelled chain error %q does not name hop 3/5", err)
		}
	}
	cancelled()
	platformNodes := []string{"edge", "cloud"}
	base := snapshotBaselines(t, p, platformNodes, fns...)
	cancelled()
	assertBaselines(t, p, platformNodes, base, fns...)

	// The chain recovers end to end.
	ref, rep, err := p.ChainCtx(bg, n, fns)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bytes != int64(5*n) {
		t.Fatalf("recovery chain bytes = %d, want %d", rep.Bytes, 5*n)
	}
	sum, err := checksumAtOwner(ref)
	if err != nil {
		t.Fatal(err)
	}
	if want := roadrunner.ExpectedChecksum(n); sum != want {
		t.Fatalf("recovery checksum = %#x, want %#x", sum, want)
	}
}

// TestCancelMidFanoutConservesBaselines cancels a fan-out while all three
// deliveries are on the wire: the fan-out must return context.Canceled,
// release the produced source region, and conserve every baseline.
func TestCancelMidFanoutConservesBaselines(t *testing.T) {
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"), roadrunner.WithWorkers(4))
	defer p.Close()
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]*roadrunner.Function, 3)
	for i := range targets {
		if targets[i], err = p.Deploy(roadrunner.FunctionSpec{Name: "t" + string(rune('0'+i)), Node: "cloud"}); err != nil {
			t.Fatal(err)
		}
	}

	const n = 64 << 10
	all := append([]*roadrunner.Function{src}, targets...)
	cancelled := func() {
		ctx, cancel := context.WithCancel(context.Background())
		var once atomic.Bool
		gate := func() {
			if once.CompareAndSwap(false, true) {
				cancel()
			}
		}
		_, _, err := p.FanoutCtx(ctx, src, targets, n, roadrunner.TestingWithGates(gate))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled fanout = %v, want context.Canceled", err)
		}
	}
	cancelled()
	nodes := []string{"edge", "cloud"}
	base := snapshotBaselines(t, p, nodes, all...)
	cancelled()
	assertBaselines(t, p, nodes, base, all...)

	// The fan-out recovers, now returning per-target refs.
	refs, reports, err := p.FanoutCtx(bg, src, targets, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != len(targets) || len(reports) != len(targets) {
		t.Fatalf("recovery fanout: %d refs / %d reports, want %d", len(refs), len(reports), len(targets))
	}
	for i := range targets {
		sum, err := checksumAtOwner(refs[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := roadrunner.ExpectedChecksum(n); sum != want {
			t.Fatalf("target %d: checksum %#x, want %#x", i, sum, want)
		}
	}
}

// TestSubmitAfterCloseReturnsErrClosed: the Plan plane respects teardown
// like every other entry point.
func TestSubmitAfterCloseReturnsErrClosed(t *testing.T) {
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"))
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := p.Deploy(roadrunner.FunctionSpec{Name: "dst", Node: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()

	pl := roadrunner.NewPlan()
	pl.Xfer(src, dst)
	if _, err := p.Submit(context.Background(), pl); !errors.Is(err, roadrunner.ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	// The ...Ctx forms answer ErrClosed too.
	if _, _, err := p.TransferCtx(context.Background(), src, dst); !errors.Is(err, roadrunner.ErrClosed) {
		t.Fatalf("TransferCtx after Close = %v, want ErrClosed", err)
	}
	if _, err := p.InvokeCtx(context.Background(), src, dst, 1024); !errors.Is(err, roadrunner.ErrClosed) {
		t.Fatalf("InvokeCtx after Close = %v, want ErrClosed", err)
	}
	if _, _, err := p.ChainCtx(context.Background(), 1024, []*roadrunner.Function{src, dst}); !errors.Is(err, roadrunner.ErrClosed) {
		t.Fatalf("ChainCtx after Close = %v, want ErrClosed", err)
	}
	if _, _, err := p.MulticastCtx(context.Background(), src, []*roadrunner.Function{dst}); !errors.Is(err, roadrunner.ErrClosed) {
		t.Fatalf("MulticastCtx after Close = %v, want ErrClosed", err)
	}
	if _, _, err := p.FanoutCtx(context.Background(), src, []*roadrunner.Function{dst}, 1024); !errors.Is(err, roadrunner.ErrClosed) {
		t.Fatalf("FanoutCtx after Close = %v, want ErrClosed", err)
	}
	cast := roadrunner.NewPlan()
	cast.Cast(src, []*roadrunner.Function{dst})
	if _, err := p.Submit(context.Background(), cast); !errors.Is(err, roadrunner.ErrClosed) {
		t.Fatalf("Submit(cast) after Close = %v, want ErrClosed", err)
	}
}

// TestDeadlineExpiredBeforeSubmitCancelsImmediately: an already-expired
// deadline aborts at admission with DeadlineExceeded, before any bytes move.
// The "live" rows are its control: a TransferCtx per mode and a 3-node
// Submit under an hour-long deadline complete as if unbounded. Every row
// runs its op once unbounded, to warm channels and grow memories, then
// under its deadline, and checks the error, every region's checksum, each
// instance's in-flight gauge and the FD, page-pool, channel and allocator
// baselines the warm-up left. No row times anything.
func TestDeadlineExpiredBeforeSubmitCancelsImmediately(t *testing.T) {
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"))
	defer p.Close()
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	if err != nil {
		t.Fatal(err)
	}
	near, err := p.Deploy(roadrunner.FunctionSpec{Name: "near", Node: "edge", ShareVMWith: src})
	if err != nil {
		t.Fatal(err)
	}
	local, err := p.Deploy(roadrunner.FunctionSpec{Name: "local", Node: "edge"})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := p.Deploy(roadrunner.FunctionSpec{Name: "dst", Node: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	fns := []*roadrunner.Function{src, near, local, dst}
	nodes := []string{"edge", "cloud"}

	const n = 1 << 20 // past the kernel path's send window
	// An op returns every region it left allocated; each holds the payload.
	type op func(*testing.T, context.Context) ([]roadrunner.DataRef, error)
	transfer := func(to *roadrunner.Function, mode string) op {
		return func(t *testing.T, ctx context.Context) ([]roadrunner.DataRef, error) {
			if err := src.Produce(n); err != nil {
				t.Fatal(err)
			}
			out, err := src.ActiveInstance().Output()
			if err != nil {
				t.Fatal(err)
			}
			ref, rep, err := p.TransferCtx(ctx, src, to, roadrunner.WithSourceRef(out))
			if err != nil {
				return []roadrunner.DataRef{out}, err
			}
			if rep.Mode != mode {
				t.Fatalf("transfer to %s: mode %q, want %q", to.Name(), rep.Mode, mode)
			}
			return []roadrunner.DataRef{out, ref}, nil
		}
	}
	// An invoke feeding two transfers. The wait is unbounded: ctx bounds
	// the work itself.
	submit := func(t *testing.T, ctx context.Context) ([]roadrunner.DataRef, error) {
		pl := roadrunner.NewPlan()
		inv := pl.Invoke(src, local, n)
		far := pl.Xfer(local, dst).From(inv)
		back := pl.Xfer(local, near).From(inv)
		job, err := p.Submit(ctx, pl)
		if err != nil {
			return nil, err
		}
		res, err := job.Wait(bg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			return nil, res.Err
		}
		produced, err := res.Node(inv).Invocation.Source.Output()
		if err != nil {
			t.Fatal(err)
		}
		return []roadrunner.DataRef{produced, res.Node(inv).Ref(), res.Node(far).Ref(), res.Node(back).Ref()}, nil
	}
	for _, row := range []struct {
		name    string
		timeout time.Duration
		want    error
		op      op
	}{
		{"expired/transfer", time.Nanosecond, context.DeadlineExceeded, transfer(dst, "network")},
		{"expired/submit", time.Nanosecond, context.DeadlineExceeded, submit},
		{"live/user", time.Hour, nil, transfer(near, "user")},
		{"live/kernel", time.Hour, nil, transfer(local, "kernel")},
		{"live/network", time.Hour, nil, transfer(dst, "network")},
		{"live/submit", time.Hour, nil, submit},
	} {
		t.Run(row.name, func(t *testing.T) {
			settle := func(refs []roadrunner.DataRef) {
				for _, ref := range refs {
					sum, err := checksumAtOwner(ref)
					if err != nil {
						t.Fatal(err)
					}
					if want := roadrunner.ExpectedChecksum(n); sum != want {
						t.Fatalf("checksum at %s = %#x, want %#x", ref.Instance().Name(), sum, want)
					}
					if err := ref.Instance().Release(ref); err != nil {
						t.Fatal(err)
					}
				}
			}
			refs, err := row.op(t, bg)
			if err != nil {
				t.Fatalf("unbounded warm-up: %v", err)
			}
			settle(refs)
			base := snapshotBaselines(t, p, nodes, fns...)

			ctx, cancel := context.WithTimeout(bg, row.timeout)
			defer cancel()
			if row.want != nil {
				<-ctx.Done()
			}
			refs, err = row.op(t, ctx)
			if !errors.Is(err, row.want) {
				t.Fatalf("under a %v deadline: %v, want %v", row.timeout, err, row.want)
			}
			settle(refs)
			for _, f := range fns {
				for _, inst := range f.Instances() {
					if got := inst.InFlight(); got != 0 {
						t.Errorf("%s: in-flight = %d after the op, want 0", inst.Name(), got)
					}
				}
			}
			assertBaselines(t, p, nodes, base, fns...)
		})
	}
}

// pollCtx is a context.Context that cancels itself on its k-th
// cancellation poll (each ctxErr in the engine calls Done() once). Sweeping
// k walks the cancellation through every polling site the data plane has —
// pipeline entry, stage boundary, and each chunk of the stage loops,
// including the post-allocation drain polls — without any timing
// dependence.
type pollCtx struct {
	k      int64
	calls  atomic.Int64
	closed chan struct{}
	open   chan struct{}
}

func newPollCtx(k int64) *pollCtx {
	c := &pollCtx{k: k, closed: make(chan struct{}), open: make(chan struct{})}
	close(c.closed)
	return c
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.calls.Add(1) >= c.k {
		return c.closed
	}
	return c.open
}

func (c *pollCtx) Err() error {
	if c.calls.Load() >= c.k {
		return context.Canceled
	}
	return nil
}

func (c *pollCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *pollCtx) Value(any) any               { return nil }

// TestCancelAtEveryPollSiteConservesBaselines sweeps a cancellation through
// every polling site of the kernel and network transfer paths (small hose →
// multi-chunk loops): whichever site trips, the transfer must return
// context.Canceled and every baseline — FDs, page pool, channel-cache
// active count, residency, and the target's bump allocator (the
// post-allocation drain polls deallocate on abort) — must hold exactly.
// The sweep ends at the first k large enough that the transfer wins.
func TestCancelAtEveryPollSiteConservesBaselines(t *testing.T) {
	for _, tc := range []struct {
		name     string
		dstNode  string
		wantMode string
	}{
		{"kernel", "edge", "kernel"},
		{"network", "cloud", "network"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"), roadrunner.TestingWithDataHoseSize(16<<10))
			defer p.Close()
			src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "edge"})
			if err != nil {
				t.Fatal(err)
			}
			dst, err := p.Deploy(roadrunner.FunctionSpec{Name: "dst", Node: tc.dstNode})
			if err != nil {
				t.Fatal(err)
			}
			const n = 96 << 10 // 6 hose chunks
			// Pre-grow both guests' linear memories: wasm memories never
			// shrink, so the sweep's first produce/delivery allocation
			// would otherwise grow them mid-iteration and skew the
			// resident baseline.
			for _, f := range []*roadrunner.Function{src, dst} {
				if err := f.Produce(n); err != nil {
					t.Fatal(err)
				}
				out, err := f.ActiveInstance().Output()
				if err != nil {
					t.Fatal(err)
				}
				if err := f.ActiveInstance().Release(out); err != nil {
					t.Fatal(err)
				}
			}
			nodes := []string{"edge", "cloud"}

			completed := false
			for k := int64(1); k <= 64; k++ {
				// Baseline first, then the fresh output (the snapshot's
				// probes would otherwise retarget it); the produce is
				// released again before the baseline comparison.
				base := snapshotBaselines(t, p, nodes, src, dst)
				if err := src.Produce(n); err != nil {
					t.Fatal(err)
				}
				ref, rep, err := p.TransferCtx(newPollCtx(k), src, dst)
				if err == nil {
					// k exceeded the path's poll count: the transfer won the
					// race. Verify it end to end and end the sweep.
					if rep.Mode != tc.wantMode {
						t.Fatalf("k=%d: mode = %q, want %q", k, rep.Mode, tc.wantMode)
					}
					sum, err := checksumAtOwner(ref)
					if err != nil {
						t.Fatal(err)
					}
					if want := roadrunner.ExpectedChecksum(n); sum != want {
						t.Fatalf("k=%d: checksum %#x, want %#x", k, sum, want)
					}
					completed = true
					break
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("k=%d: err = %v, want context.Canceled", k, err)
				}
				// The fresh produce is this iteration's only intended
				// allocation: hand it back so the comparison sees exactly
				// what the cancelled transfer left behind.
				if out, oerr := src.ActiveInstance().Output(); oerr == nil {
					if rerr := src.ActiveInstance().Release(out); rerr != nil {
						t.Fatalf("k=%d: release produce: %v", k, rerr)
					}
				}
				assertBaselines(t, p, nodes, base, src, dst)
			}
			if !completed {
				t.Fatal("sweep never reached a successful transfer; poll count grew past 64?")
			}
		})
	}
}
