package roadrunner_test

import (
	"context"
	"errors"
	"testing"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
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

func TestDefaultNodes(t *testing.T) {
	p := newPlatform(t)
	nodes := p.Nodes()
	if len(nodes) != 2 || nodes[0] != "edge" || nodes[1] != "cloud" {
		t.Fatalf("nodes = %v", nodes)
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
		ref, rep, err := p.TransferCtx(bg, a, tc.dst)
		if err != nil {
			t.Fatalf("transfer to %s: %v", tc.dst.Name(), err)
		}
		if rep.Mode != tc.mode {
			t.Fatalf("mode to %s = %q, want %q", tc.dst.Name(), rep.Mode, tc.mode)
		}
		sum, err := tc.dst.Checksum(ref)
		if err != nil {
			t.Fatal(err)
		}
		if sum != roadrunner.ExpectedChecksum(n) {
			t.Fatalf("checksum mismatch via %s", tc.mode)
		}
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
	sum, err := d.Checksum(ref)
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
	out, err := b.ResizeHalf(ref, w, h)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len != (w/2)*(h/2) {
		t.Fatalf("resize output = %d", out.Len)
	}
	if _, err := b.ResizeHalf(ref, 10, 10); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestColdStartAndVMShare(t *testing.T) {
	p := newPlatform(t)
	a := deploy(t, p, roadrunner.FunctionSpec{Name: "a", Node: "edge"})
	b := deploy(t, p, roadrunner.FunctionSpec{Name: "b", Node: "edge", ShareVMWith: a})
	c := deploy(t, p, roadrunner.FunctionSpec{Name: "c", Node: "edge"})
	if !a.SharesVMWith(b) || a.SharesVMWith(c) {
		t.Fatal("VM sharing misreported")
	}
	if a.ColdStart() <= 0 {
		t.Fatal("cold start not measured")
	}
	if a.Node() != "edge" || a.Workflow().Name != "default" {
		t.Fatalf("metadata: node=%s wf=%v", a.Node(), a.Workflow())
	}
}

func TestOutputBeforeProduceFails(t *testing.T) {
	p := newPlatform(t)
	a := deploy(t, p, roadrunner.FunctionSpec{Name: "a", Node: "edge"})
	if _, err := a.Output(); err == nil {
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
		sum, err := dst.Checksum(refs[i])
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
	if err := f.Produce(n); err != nil {
		t.Fatal(err)
	}
	if err := f.SaveState("checkpoint"); err != nil {
		t.Fatal(err)
	}
	ref, err := f.LoadState("checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	sum, err := f.Checksum(ref)
	if err != nil || sum != roadrunner.ExpectedChecksum(n) {
		t.Fatalf("state payload corrupted: %v", err)
	}
	// Other workflow sees nothing.
	if _, err := other.LoadState("checkpoint"); err == nil {
		t.Fatal("cross-workflow state access allowed")
	}
	if keys := f.StateKeys(); len(keys) != 1 || keys[0] != "checkpoint" {
		t.Fatalf("keys = %v", keys)
	}
	f.DeleteState("checkpoint")
	if keys := f.StateKeys(); len(keys) != 0 {
		t.Fatalf("keys after delete = %v", keys)
	}
}
