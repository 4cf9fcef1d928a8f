package roadrunner_test

import (
	"context"
	"testing"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/sched"
)

// Allocation ceilings for the data plane's steady state, pinned by
// TestAllocCeilings. The transfer fast path is the zero-alloc invariant
// (DESIGN.md §10): a warm same-node kernel transfer allocates nothing in
// the layers this repo owns. Plan submission builds a DAG, a job and its
// result set, so it has a small fixed budget instead; pool submission is a
// ring-buffer enqueue and must stay allocation-free. Raising any of these
// numbers is a hot-path regression and needs DESIGN.md §10 justification
// in the same change.
const (
	allocCeilingWarmTransfer = 0
	allocCeilingPlanSubmit   = 20
	allocCeilingPoolSubmit   = 0
	// A warm same-node fan-out is one shared-egress multicast pass: the
	// per-operation slices (channels, drains, refs, reports, configs), one
	// drain goroutine and one drained reference run per target, and the one
	// extent header of the tee pass (measured 77, +10 %). Its budget is per
	// operation, not per target — the shared pass is what keeps it from
	// scaling with N payload copies.
	allocCeilingWarmFanout = 84
)

// allocFanoutDegree sizes the fan-out ceiling probe: enough targets that a
// per-target O(N) payload-copy regression would blow the budget.
const allocFanoutDegree = 8

// allocBenchPayload keeps the ceiling measurements about per-operation
// bookkeeping, not payload size: one simulated kernel page.
const allocBenchPayload = 4 << 10

// buildWarmPair deploys two single-replica functions — on one node, or on
// two when dstNode differs — produces a payload-byte source output, and
// warms the pair's channel with one untimed transfer so the measured loop is
// pure steady state.
func buildWarmPair(tb testing.TB, dstNode string, payload int) (*roadrunner.Platform, *roadrunner.Function, *roadrunner.Function) {
	tb.Helper()
	p := roadrunner.New(roadrunner.WithNodes("node", dstNode))
	tb.Cleanup(p.Close)
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: "node"})
	if err != nil {
		tb.Fatal(err)
	}
	dst, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: dstNode})
	if err != nil {
		tb.Fatal(err)
	}
	if err := src.Produce(payload); err != nil {
		tb.Fatal(err)
	}
	ref, _, err := p.TransferCtx(bg, src, dst)
	if err != nil {
		tb.Fatal(err)
	}
	if err := dst.Release(ref); err != nil {
		tb.Fatal(err)
	}
	return p, src, dst
}

// benchWarmTransfer is the transfer fast path's allocation probe: warm
// channel, recycled pipeline state, pooled config. Same-node (the kernel
// path) is expected at 0 allocs/op; cross-node runs Algorithm 1's hose,
// whose allocations are per chunk bookkeeping and must not scale with the
// pages a chunk carries.
func benchWarmTransfer(dstNode string, payload int) func(b *testing.B) {
	return func(b *testing.B) {
		p, src, dst := buildWarmPair(b, dstNode, payload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ref, _, err := p.TransferCtx(bg, src, dst)
			if err != nil {
				b.Fatal(err)
			}
			if err := dst.Release(ref); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// buildWarmFanout deploys one source and allocFanoutDegree single-replica
// targets on one node and warms the socketpair channels with one untimed
// shared-egress fan-out.
func buildWarmFanout(tb testing.TB) (*roadrunner.Platform, *roadrunner.Function, []*roadrunner.Function) {
	tb.Helper()
	p := roadrunner.New(roadrunner.WithNodes("node"), roadrunner.WithWorkers(4))
	tb.Cleanup(p.Close)
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "node"})
	if err != nil {
		tb.Fatal(err)
	}
	targets := make([]*roadrunner.Function, allocFanoutDegree)
	for i := range targets {
		if targets[i], err = p.Deploy(roadrunner.FunctionSpec{Name: "t" + string(rune('0'+i)), Node: "node"}); err != nil {
			tb.Fatal(err)
		}
	}
	refs, _, err := p.FanoutCtx(bg, src, targets, allocBenchPayload)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range targets {
		if err := targets[i].Release(refs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if out, err := src.Instance(0).Output(); err == nil {
		if err := src.Instance(0).Release(out); err != nil {
			tb.Fatal(err)
		}
	}
	return p, src, targets
}

// benchWarmFanout is the shared-egress fan-out's allocation probe: warm
// socketpair channels, one multicast tee group, fixed per-operation
// bookkeeping regardless of payload.
func benchWarmFanout(b *testing.B) {
	p, src, targets := buildWarmFanout(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refs, _, err := p.FanoutCtx(bg, src, targets, allocBenchPayload)
		if err != nil {
			b.Fatal(err)
		}
		for k := range targets {
			if err := targets[k].Release(refs[k]); err != nil {
				b.Fatal(err)
			}
		}
		out, err := src.Instance(0).Output()
		if err != nil {
			b.Fatal(err)
		}
		if err := src.Instance(0).Release(out); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPlanSubmit measures one single-Xfer plan through the DAG plane:
// build, submit, wait, release. The plan plane's bookkeeping (plan, node,
// job, result set) is its fixed per-operation budget.
func benchPlanSubmit(b *testing.B) {
	p, src, dst := buildWarmPair(b, "node", allocBenchPayload)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := roadrunner.NewPlan()
		node := pl.Xfer(src, dst)
		job, err := p.Submit(ctx, pl)
		if err != nil {
			b.Fatal(err)
		}
		res, err := job.Wait(ctx)
		if err != nil {
			b.Fatal(err)
		}
		nr := res.Node(node)
		if nr.Err != nil {
			b.Fatal(nr.Err)
		}
		if err := dst.Release(nr.Ref()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPoolSubmit measures the scheduler's submit path alone: b.N no-op
// tasks through the sharded pool, drained once outside the timed window's
// per-op accounting. Submit is a ring-buffer enqueue and must not allocate.
func benchPoolSubmit(b *testing.B) {
	pool := sched.New(2, 1024)
	defer pool.Close()
	task := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pool.Submit(task); err != nil {
			b.Fatal(err)
		}
	}
	pool.Wait()
}

func BenchmarkAllocWarmKernelTransfer(b *testing.B) {
	benchWarmTransfer("node", allocBenchPayload)(b)
}
func BenchmarkAllocWarmFanout(b *testing.B) { benchWarmFanout(b) }
func BenchmarkAllocPlanSubmit(b *testing.B) { benchPlanSubmit(b) }
func BenchmarkAllocPoolSubmit(b *testing.B) { benchPoolSubmit(b) }

// TestAllocCeilings pins allocs/op ceilings for the three hot paths and
// fails on any increase — the in-tree half of the perf gate (cmd/perfgate
// guards the throughput trajectory; this guards the allocation one).
func TestAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	cases := []struct {
		name    string
		ceiling int64
		bench   func(b *testing.B)
	}{
		{"warm-kernel-transfer", allocCeilingWarmTransfer, benchWarmTransfer("node", allocBenchPayload)},
		{"warm-fanout", allocCeilingWarmFanout, benchWarmFanout},
		{"plan-submit", allocCeilingPlanSubmit, benchPlanSubmit},
		{"pool-submit", allocCeilingPoolSubmit, benchPoolSubmit},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := testing.Benchmark(c.bench)
			if got := r.AllocsPerOp(); got > c.ceiling {
				t.Errorf("%s: %d allocs/op, ceiling %d — hot-path allocation regression (see DESIGN.md §10)",
					c.name, got, c.ceiling)
			}
		})
	}
	// The kernel path streams through a fixed send window of pooled slabs:
	// a warm same-node transfer's allocations must not grow with the
	// payload, even one four times the pool's whole free cache (staging the
	// payload first allocated 12 MB per 16 MiB transfer).
	t.Run("warm-kernel-transfer-any-size", func(t *testing.T) {
		small := testing.Benchmark(benchWarmTransfer("node", 64<<10)).AllocsPerOp()
		large := testing.Benchmark(benchWarmTransfer("node", 16<<20)).AllocsPerOp()
		if small != large {
			t.Errorf("warm-kernel-transfer: %d allocs/op at 64 KiB, %d at 16 MiB — the copy path stages past its window (see DESIGN.md §10)",
				small, large)
		}
	})
	// The hose moves a chunk as extents, not pages: a warm cross-node
	// transfer's allocations (one header per vmspliced run, the drained
	// reference run) are per chunk and must not grow with the pages in it.
	t.Run("warm-network-transfer", func(t *testing.T) {
		small := testing.Benchmark(benchWarmTransfer("far", 64<<10)).AllocsPerOp()
		large := testing.Benchmark(benchWarmTransfer("far", 1<<20)).AllocsPerOp()
		if small != large {
			t.Errorf("warm-network-transfer: %d allocs/op at 64 KiB, %d at 1 MiB — the hose path allocates per page (see DESIGN.md §10)",
				small, large)
		}
	})
	// A striped drain deals whole chunks to the caller by value through the
	// pooled pipeline state: a 4-chunk transfer allocates what four 1-chunk
	// transfers do (the extent header and the drained reference run, per
	// chunk), nothing per job, join or depositor.
	t.Run("warm-network-striped", func(t *testing.T) {
		perChunk := testing.Benchmark(benchWarmTransfer("far", 64<<10)).AllocsPerOp()
		striped := testing.Benchmark(benchWarmTransfer("far", 16<<20)).AllocsPerOp()
		if striped != 4*perChunk {
			t.Errorf("warm-network-striped: %d allocs/op for 4 hose chunks, %d for one — dealing a chunk to the second depositor allocates (see DESIGN.md §10)",
				striped, perChunk)
		}
	})
}
