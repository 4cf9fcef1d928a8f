package roadrunner_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
)

// bg is the context of every test call that is not about cancellation.
var bg = context.Background()

func newPlatform(t *testing.T, opts ...roadrunner.Option) *roadrunner.Platform {
	t.Helper()
	p := roadrunner.New(opts...)
	t.Cleanup(p.Close)
	return p
}

func deploy(t *testing.T, p *roadrunner.Platform, spec roadrunner.FunctionSpec) *roadrunner.Function {
	t.Helper()
	f, err := p.Deploy(spec)
	if err != nil {
		t.Fatalf("deploy %s: %v", spec.Name, err)
	}
	return f
}

// checksumAtOwner digests ref inside the instance that owns it.
func checksumAtOwner(ref roadrunner.DataRef) (uint64, error) {
	return ref.Instance().Checksum(ref)
}

func TestDefaultNodes(t *testing.T) {
	p := newPlatform(t)
	nodes := roadrunner.TestingNodes(p)
	if len(nodes) != 2 || nodes[0] != "edge" || nodes[1] != "cloud" {
		t.Fatalf("nodes = %v", nodes)
	}
}

// TestWithNodesDeduplicates: a node named twice is registered once, in the
// order of its first mention.
func TestWithNodesDeduplicates(t *testing.T) {
	p := newPlatform(t, roadrunner.WithNodes("a", "b", "a"))
	if nodes := roadrunner.TestingNodes(p); len(nodes) != 2 || nodes[0] != "a" || nodes[1] != "b" {
		t.Fatalf("nodes = %v, want [a b]", nodes)
	}
}

// TestDefaultLinkIsTheTestbeds: without WithLink, a cross-node transfer is
// charged the paper's 100 Mbps, 1 ms RTT link (§6.2), one flow on it.
func TestDefaultLinkIsTheTestbeds(t *testing.T) {
	p := newPlatform(t)
	a := deploy(t, p, roadrunner.FunctionSpec{Name: "a", Node: "edge"})
	b := deploy(t, p, roadrunner.FunctionSpec{Name: "b", Node: "cloud"})
	const n = 1_000_000
	if err := a.Produce(n); err != nil {
		t.Fatal(err)
	}
	_, rep, err := p.TransferCtx(bg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := netsim.NewLink(100*netsim.Mbps, time.Millisecond).TransferTime(n, 1); rep.Breakdown.Network != want {
		t.Fatalf("network time = %v, want %v", rep.Breakdown.Network, want)
	}
}

func TestDeployUnknownNode(t *testing.T) {
	p := newPlatform(t)
	if _, err := p.Deploy(roadrunner.FunctionSpec{Name: "x", Node: "mars"}); !errors.Is(err, roadrunner.ErrUnknownNode) {
		t.Fatalf("err = %v", err)
	}
}

func TestAutoModeSelectsByLocality(t *testing.T) {
	p := newPlatform(t)
	a := deploy(t, p, roadrunner.FunctionSpec{Name: "a", Node: "edge"})
	b := deploy(t, p, roadrunner.FunctionSpec{Name: "b", Node: "edge", ShareVMWith: a})
	c := deploy(t, p, roadrunner.FunctionSpec{Name: "c", Node: "edge"})
	d := deploy(t, p, roadrunner.FunctionSpec{Name: "d", Node: "cloud"})

	const n = 50_000
	if err := a.Produce(n); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		dst  *roadrunner.Function
		mode string
	}{
		{b, "user"},
		{c, "kernel"},
		{d, "network"},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			ref, rep, err := p.TransferCtx(bg, a, tc.dst)
			if err != nil {
				t.Fatalf("transfer to %s: %v", tc.dst.Name(), err)
			}
			if rep.Mode != tc.mode {
				t.Fatalf("mode to %s = %q, want %q", tc.dst.Name(), rep.Mode, tc.mode)
			}
			// Roadrunner moves raw bytes in every mode: no codec, no
			// serialization component (the paper's Figs. 6–8).
			if rep.Breakdown.Serialization != 0 {
				t.Fatalf("serialization = %v, want 0", rep.Breakdown.Serialization)
			}
			// Only the inter-node path is charged modeled wire time.
			if wire := rep.Breakdown.Network > 0; wire != (tc.mode == "network") {
				t.Fatalf("network time = %v", rep.Breakdown.Network)
			}
			sum, err := checksumAtOwner(ref)
			if err != nil {
				t.Fatal(err)
			}
			if sum != roadrunner.ExpectedChecksum(n) {
				t.Fatal("checksum mismatch")
			}
		})
	}
}

func TestShareVMRequiresSameWorkflow(t *testing.T) {
	p := newPlatform(t)
	a := deploy(t, p, roadrunner.FunctionSpec{
		Name: "a", Node: "edge",
		Workflow: roadrunner.Workflow{Name: "wf1", Tenant: "t1"},
	})
	_, err := p.Deploy(roadrunner.FunctionSpec{
		Name: "b", Node: "edge",
		Workflow:    roadrunner.Workflow{Name: "wf2", Tenant: "t1"},
		ShareVMWith: a,
	})
	if !errors.Is(err, roadrunner.ErrWorkflowMismatch) {
		t.Fatalf("cross-workflow colocation = %v", err)
	}
	// Different tenant, same workflow name: still rejected.
	_, err = p.Deploy(roadrunner.FunctionSpec{
		Name: "c", Node: "edge",
		Workflow:    roadrunner.Workflow{Name: "wf1", Tenant: "t2"},
		ShareVMWith: a,
	})
	if !errors.Is(err, roadrunner.ErrWorkflowMismatch) {
		t.Fatalf("cross-tenant colocation = %v", err)
	}
}

func TestForcedModeValidation(t *testing.T) {
	p := newPlatform(t)
	a := deploy(t, p, roadrunner.FunctionSpec{Name: "a", Node: "edge"})
	b := deploy(t, p, roadrunner.FunctionSpec{Name: "b", Node: "edge"})
	if err := a.Produce(100); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.TransferCtx(bg, a, b, roadrunner.WithMode(roadrunner.ModeNetwork)); !errors.Is(err, roadrunner.ErrModeUnavailable) {
		t.Fatalf("same-node network transfer = %v", err)
	}
	if _, _, err := p.TransferCtx(bg, a, b, roadrunner.WithMode(roadrunner.ModeKernelSpace)); err != nil {
		t.Fatalf("forced kernel transfer: %v", err)
	}
}

func TestNetworkTimeFollowsConfiguredLink(t *testing.T) {
	p := newPlatform(t, roadrunner.WithLink(10*roadrunner.Mbps, 5*time.Millisecond))
	a := deploy(t, p, roadrunner.FunctionSpec{Name: "a", Node: "edge"})
	b := deploy(t, p, roadrunner.FunctionSpec{Name: "b", Node: "cloud"})
	const n = 1_000_000 // 0.8 s at 10 Mbps
	if err := a.Produce(n); err != nil {
		t.Fatal(err)
	}
	_, rep, err := p.TransferCtx(bg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := 805 * time.Millisecond
	if diff := rep.Breakdown.Network - want; diff < -10*time.Millisecond || diff > 10*time.Millisecond {
		t.Fatalf("network time = %v, want ~%v", rep.Breakdown.Network, want)
	}
}

func TestChainAcrossThreeLocalities(t *testing.T) {
	p := newPlatform(t)
	a := deploy(t, p, roadrunner.FunctionSpec{Name: "a", Node: "edge"})
	b := deploy(t, p, roadrunner.FunctionSpec{Name: "b", Node: "edge", ShareVMWith: a})
	c := deploy(t, p, roadrunner.FunctionSpec{Name: "c", Node: "edge"})
	d := deploy(t, p, roadrunner.FunctionSpec{Name: "d", Node: "cloud"})

	const n = 80_000
	ref, rep, err := p.ChainCtx(bg, n, []*roadrunner.Function{a, b, c, d})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := checksumAtOwner(ref)
	if err != nil {
		t.Fatal(err)
	}
	if sum != roadrunner.ExpectedChecksum(n) {
		t.Fatal("chained payload corrupted")
	}
	// Three hops: bytes accumulate.
	if rep.Bytes != 3*n {
		t.Fatalf("chain bytes = %d, want %d", rep.Bytes, 3*n)
	}
	if rep.Breakdown.Network <= 0 {
		t.Fatal("chain missing network component")
	}
}

func TestChainRequiresTwoFunctions(t *testing.T) {
	p := newPlatform(t)
	a := deploy(t, p, roadrunner.FunctionSpec{Name: "a", Node: "edge"})
	if _, _, err := p.ChainCtx(bg, 10, []*roadrunner.Function{a}); err == nil {
		t.Fatal("single-function chain accepted")
	}
}

func TestFanout(t *testing.T) {
	p := newPlatform(t)
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	targets := make([]*roadrunner.Function, 4)
	for i := range targets {
		targets[i] = deploy(t, p, roadrunner.FunctionSpec{Name: "t", Node: "cloud"})
	}
	const n = 100_000
	_, reports, err := p.FanoutCtx(bg, src, targets, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d", len(reports))
	}
	// Fan-out contention: each flow's modeled network time reflects 4
	// flows sharing the link.
	single := deploy(t, p, roadrunner.FunctionSpec{Name: "solo", Node: "cloud"})
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	_, soloRep, err := p.TransferCtx(bg, src, single)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(reports[0].Breakdown.Network) / float64(soloRep.Breakdown.Network)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("fanout slowdown = %.2f, want ~4", ratio)
	}
}

// TestFanoutSharedEgressCopies pins the same-node fan-out's structural
// invariant at every degree: FanoutCtx's tee group serves all targets from
// one pinned source read and pushes no payload byte across the kernel
// boundary, while the same deliveries as independent unicasts of one
// produced output (TransferCtx with WithSourceRef) pay the kernel path's
// two copies per target.
func TestFanoutSharedEgressCopies(t *testing.T) {
	const n = 64 << 10
	for _, degree := range []int{1, 2, 4, 8, 16} {
		build := func(t *testing.T) (*roadrunner.Platform, *roadrunner.Function, []*roadrunner.Function) {
			p := roadrunner.New(roadrunner.WithNodes("node"))
			t.Cleanup(func() { p.Close() })
			src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "node"})
			targets := make([]*roadrunner.Function, degree)
			for i := range targets {
				targets[i] = deploy(t, p, roadrunner.FunctionSpec{Name: fmt.Sprintf("t%d", i), Node: "node"})
			}
			return p, src, targets
		}
		verify := func(t *testing.T, refs []roadrunner.DataRef, reports []roadrunner.Report, mode string, perTarget int64) {
			if len(refs) != degree || len(reports) != degree {
				t.Fatalf("%d refs, %d reports for %d targets", len(refs), len(reports), degree)
			}
			for i, rep := range reports {
				if rep.Mode != mode || rep.Usage.KernelCopyBytes != perTarget {
					t.Fatalf("target %d: mode %q, %d kernel-copy bytes, want %q and %d", i, rep.Mode, rep.Usage.KernelCopyBytes, mode, perTarget)
				}
				if sum, err := checksumAtOwner(refs[i]); err != nil || sum != roadrunner.ExpectedChecksum(n) {
					t.Fatalf("target %d: checksum %#x, %v", i, sum, err)
				}
			}
		}
		t.Run(fmt.Sprintf("shared-%d", degree), func(t *testing.T) {
			p, src, targets := build(t)
			refs, reports, err := p.FanoutCtx(bg, src, targets, n)
			if err != nil {
				t.Fatal(err)
			}
			verify(t, refs, reports, "kernel-multicast", 0)
		})
		t.Run(fmt.Sprintf("per-target-%d", degree), func(t *testing.T) {
			p, src, targets := build(t)
			if err := src.Produce(n); err != nil {
				t.Fatal(err)
			}
			out, err := src.Instance(0).Output()
			if err != nil {
				t.Fatal(err)
			}
			refs := make([]roadrunner.DataRef, degree)
			reports := make([]roadrunner.Report, degree)
			for i, dst := range targets {
				if refs[i], reports[i], err = p.TransferCtx(bg, src, dst, roadrunner.WithSourceRef(out)); err != nil {
					t.Fatal(err)
				}
			}
			verify(t, refs, reports, "kernel", 2*n)
		})
	}
}

func TestResizeHalfAPI(t *testing.T) {
	p := newPlatform(t)
	a := deploy(t, p, roadrunner.FunctionSpec{Name: "a", Node: "edge"})
	b := deploy(t, p, roadrunner.FunctionSpec{Name: "b", Node: "edge", ShareVMWith: a})
	const w, h = 64, 64
	if err := a.Produce(w * h); err != nil {
		t.Fatal(err)
	}
	ref, _, err := p.TransferCtx(bg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Instance() != b.Instance(0) {
		t.Fatal("delivery not owned by b's instance")
	}
	out, err := ref.Instance().ResizeHalf(ref, w, h)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len != (w/2)*(h/2) {
		t.Fatalf("resize output = %d", out.Len)
	}
	if out.Instance() != b.Instance(0) {
		t.Fatal("resize output not owned by b's instance")
	}
	// A mismatch, a width that wraps to the right 32-bit product, and
	// negative dimensions whose product matches.
	for _, d := range [][2]int{{10, 10}, {1<<32 + w*h/2, 2}, {-w, -h}} {
		if _, err := ref.Instance().ResizeHalf(ref, d[0], d[1]); err == nil {
			t.Fatalf("ResizeHalf(%d, %d) on %d bytes accepted", d[0], d[1], ref.Len)
		}
	}
}

func TestColdStartAndVMShare(t *testing.T) {
	p := newPlatform(t)
	a := deploy(t, p, roadrunner.FunctionSpec{Name: "a", Node: "edge"})
	b := deploy(t, p, roadrunner.FunctionSpec{Name: "b", Node: "edge", ShareVMWith: a})
	c := deploy(t, p, roadrunner.FunctionSpec{Name: "c", Node: "edge"})
	if !roadrunner.TestingSharesVM(a.Instance(0), b.Instance(0)) || roadrunner.TestingSharesVM(a.Instance(0), c.Instance(0)) {
		t.Fatal("VM sharing misreported")
	}
	if a.ColdStart() <= 0 {
		t.Fatal("cold start not measured")
	}
	if a.Instance(0).Node() != "edge" || roadrunner.TestingWorkflow(a).Name != "default" {
		t.Fatalf("metadata: node=%s wf=%v", a.Instance(0).Node(), roadrunner.TestingWorkflow(a))
	}
}

func TestOutputBeforeProduceFails(t *testing.T) {
	p := newPlatform(t)
	a := deploy(t, p, roadrunner.FunctionSpec{Name: "a", Node: "edge"})
	if _, err := a.ActiveInstance().Output(); err == nil {
		t.Fatal("output before produce accepted")
	}
}

func TestReportMergeAndThroughput(t *testing.T) {
	r1 := roadrunner.Report{Bytes: 10, Breakdown: roadrunner.Breakdown{Transfer: 100 * time.Millisecond}}
	r2 := roadrunner.Report{Bytes: 5, Breakdown: roadrunner.Breakdown{Network: 100 * time.Millisecond}}
	m := r1.Merge(r2)
	if m.Bytes != 15 || m.Latency() != 200*time.Millisecond {
		t.Fatalf("merge = %+v", m)
	}
	if tp := m.Throughput(); tp < 4.9 || tp > 5.1 {
		t.Fatalf("throughput = %v", tp)
	}
	if (roadrunner.Report{}).Throughput() != 0 {
		t.Fatal("zero report throughput")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[roadrunner.Mode]string{
		roadrunner.ModeAuto:        "auto",
		roadrunner.ModeUserSpace:   "user",
		roadrunner.ModeKernelSpace: "kernel",
		roadrunner.ModeNetwork:     "network",
	} {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", int(m), m.String())
		}
	}
}

func TestMulticastPublicAPI(t *testing.T) {
	p := newPlatform(t, roadrunner.WithNodes("edge", "cloud-a", "cloud-b"))
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	t1 := deploy(t, p, roadrunner.FunctionSpec{Name: "t1", Node: "cloud-a"})
	t2 := deploy(t, p, roadrunner.FunctionSpec{Name: "t2", Node: "cloud-b"})

	const n = 200_000
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	refs, reports, err := p.MulticastCtx(bg, src, []*roadrunner.Function{t1, t2})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || len(reports) != 2 {
		t.Fatalf("refs=%d reports=%d", len(refs), len(reports))
	}
	for i, dst := range []*roadrunner.Function{t1, t2} {
		if owner, _ := roadrunner.TestingOwner(refs[i].Instance()); owner != dst {
			t.Fatalf("target %d: ref not owned by %s", i, dst.Name())
		}
		sum, err := checksumAtOwner(refs[i])
		if err != nil || sum != roadrunner.ExpectedChecksum(n) {
			t.Fatalf("target %d corrupted: %v", i, err)
		}
		if reports[i].Mode != "network-multicast" {
			t.Fatalf("mode = %s", reports[i].Mode)
		}
	}
}

func TestStatePublicAPI(t *testing.T) {
	p := newPlatform(t)
	wf := roadrunner.Workflow{Name: "stateful", Tenant: "t"}
	f := deploy(t, p, roadrunner.FunctionSpec{Name: "f", Node: "edge", Workflow: wf})
	other := deploy(t, p, roadrunner.FunctionSpec{Name: "g", Node: "edge"})

	const n = 64_000
	inst := f.Instance(0)
	if err := inst.Produce(n); err != nil {
		t.Fatal(err)
	}
	if err := inst.SaveState("checkpoint"); err != nil {
		t.Fatal(err)
	}
	ref, err := inst.LoadState("checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := checksumAtOwner(ref)
	if err != nil || sum != roadrunner.ExpectedChecksum(n) {
		t.Fatalf("state payload corrupted: %v", err)
	}
	// Other workflow sees nothing.
	if _, err := other.Instance(0).LoadState("checkpoint"); err == nil {
		t.Fatal("cross-workflow state access allowed")
	}
	if keys := f.StateKeys(); len(keys) != 1 || keys[0] != "checkpoint" {
		t.Fatalf("keys = %v", keys)
	}
	roadrunner.TestingDeleteState(f, "checkpoint")
	if keys := f.StateKeys(); len(keys) != 0 {
		t.Fatalf("keys after delete = %v", keys)
	}
}
