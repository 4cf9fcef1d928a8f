// Tests for the replicated deployment model and the invoker plane:
// instance pools spread across nodes, placement-policy routing, the
// Instance escape hatch, per-function report aggregation, and the -race
// stress acceptance bar (≥64 concurrent invocations with conserved
// accounting and FD/page-pool baselines).
package roadrunner_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// deployPool deploys a replicated function spread across edge and cloud.
func deployPool(t testing.TB, p *roadrunner.Platform, name string, replicas int) *roadrunner.Function {
	t.Helper()
	f, err := p.Deploy(roadrunner.FunctionSpec{
		Name:     name,
		Replicas: replicas,
		Nodes:    []string{"edge", "cloud"},
	})
	if err != nil {
		t.Fatalf("deploy %s: %v", name, err)
	}
	return f
}

func TestReplicatedDeploySpread(t *testing.T) {
	p := roadrunner.New()
	defer p.Close()
	f := deployPool(t, p, "f", 4)
	if f.Replicas() != 4 {
		t.Fatalf("replicas = %d", f.Replicas())
	}
	wantNodes := []string{"edge", "cloud", "edge", "cloud"}
	for i, inst := range f.Instances() {
		if inst.Node() != wantNodes[i] {
			t.Errorf("instance %d on %s, want %s", i, inst.Node(), wantNodes[i])
		}
		if want := fmt.Sprintf("f#%d", i); inst.Name() != want {
			t.Errorf("instance %d named %q, want %q", i, inst.Name(), want)
		}
		if inst.Index() != i || inst.Function() != f {
			t.Errorf("instance %d identity wrong", i)
		}
	}
	if f.Instance(4) != nil || f.Instance(-1) != nil {
		t.Error("out-of-range Instance() must be nil")
	}
	// Single-replica deployments keep the bare name and the old behavior.
	g, err := p.Deploy(roadrunner.FunctionSpec{Name: "g", Node: "edge"})
	if err != nil {
		t.Fatal(err)
	}
	if g.Instance(0).Name() != "g" || g.Replicas() != 1 {
		t.Fatalf("single-replica function: %q x%d", g.Instance(0).Name(), g.Replicas())
	}
	// Unknown nodes in the spread are rejected.
	if _, err := p.Deploy(roadrunner.FunctionSpec{Name: "bad", Replicas: 2, Nodes: []string{"edge", "mars"}}); !errors.Is(err, roadrunner.ErrUnknownNode) {
		t.Fatalf("unknown spread node: %v", err)
	}
}

// TestPlacementRoutesByLocality: with pools straddling both nodes, the
// locality policy must keep every auto-mode transfer on a same-node
// (kernel-space) instance pair — zero modeled wire time — while the
// round-robin ablation pays the network for misaligned picks.
func TestPlacementRoutesByLocality(t *testing.T) {
	run := func(policy roadrunner.PlacementPolicy) (kernel, network int) {
		p := roadrunner.New(roadrunner.WithPlacement(policy))
		defer p.Close()
		src := deployPool(t, p, "src", 4)
		dst := deployPool(t, p, "dst", 4)
		for k := 0; k < 8; k++ {
			inv, err := p.InvokeCtx(bg, src, dst, 4<<10)
			if err != nil {
				t.Fatal(err)
			}
			switch inv.Report.Mode {
			case "kernel":
				kernel++
			case "network":
				network++
			default:
				t.Fatalf("unexpected mode %q", inv.Report.Mode)
			}
			sum, err := inv.Target.Checksum(inv.Ref)
			if err != nil || sum != roadrunner.ExpectedChecksum(4<<10) {
				t.Fatalf("checksum: %#x, %v", sum, err)
			}
		}
		return kernel, network
	}
	if k, n := run(roadrunner.PlacementLocality); n != 0 || k != 8 {
		t.Fatalf("locality: %d kernel / %d network, want 8/0", k, n)
	}
	if k, n := run(roadrunner.PlacementLeastLoaded); k+n != 8 {
		t.Fatalf("least-loaded: %d kernel + %d network != 8", k, n)
	}
}

// TestForcedModeRoutesEligibleInstances: forcing a mechanism on a
// replicated target must restrict the candidate pool to instances the mode
// can reach, and fail with ErrModeUnavailable when there are none.
func TestForcedModeRoutesEligibleInstances(t *testing.T) {
	p := roadrunner.New()
	defer p.Close()
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	if err != nil {
		t.Fatal(err)
	}
	dst := deployPool(t, p, "dst", 4)
	if err := src.Produce(4 << 10); err != nil {
		t.Fatal(err)
	}
	_, rep, err := p.TransferCtx(bg, src, dst, roadrunner.WithMode(roadrunner.ModeNetwork))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "network" || dst.ActiveInstance().Node() != "cloud" {
		t.Fatalf("forced network delivered %q to %s", rep.Mode, dst.ActiveInstance().Node())
	}
	_, rep, err = p.TransferCtx(bg, src, dst, roadrunner.WithMode(roadrunner.ModeKernelSpace))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "kernel" || dst.ActiveInstance().Node() != "edge" {
		t.Fatalf("forced kernel delivered %q to %s", rep.Mode, dst.ActiveInstance().Node())
	}
	// No instance of dst shares a VM with src: user space is unreachable.
	if _, _, err := p.TransferCtx(bg, src, dst, roadrunner.WithMode(roadrunner.ModeUserSpace)); !errors.Is(err, roadrunner.ErrModeUnavailable) {
		t.Fatalf("forced user space: %v", err)
	}
	// Pinning an instance of the wrong function is rejected.
	if _, _, err := p.TransferCtx(bg, src, dst, roadrunner.WithTargetInstance(src.Instance(0))); !errors.Is(err, roadrunner.ErrForeignInstance) {
		t.Fatalf("foreign instance pin: %v", err)
	}
}

// TestShareVMReplicasPairwise: a replicated function deployed into a
// replicated host's VMs pairs replica i with host instance i, enabling
// user-space transfers per replica pair.
func TestShareVMReplicasPairwise(t *testing.T) {
	p := roadrunner.New()
	defer p.Close()
	host := deployPool(t, p, "host", 2)
	guest, err := p.Deploy(roadrunner.FunctionSpec{Name: "guest", Replicas: 2, ShareVMWith: host})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if !guest.Instance(i).SharesVMWith(host.Instance(i)) {
			t.Fatalf("guest#%d does not share host#%d's VM", i, i)
		}
	}
	inv, err := p.InvokeCtx(bg, host, guest, 4<<10)
	if err != nil {
		t.Fatal(err)
	}
	if inv.Report.Mode != "user" {
		t.Fatalf("locality across shared VMs picked %q, want user", inv.Report.Mode)
	}
	// A wider pool wraps around the host's VMs: replicas 0 and 2 share
	// host#0's shim (and account). The function report must count each
	// distinct account once, not once per instance.
	wide, err := p.Deploy(roadrunner.FunctionSpec{Name: "wide", Replicas: 4, ShareVMWith: host})
	if err != nil {
		t.Fatal(err)
	}
	if !wide.Instance(0).SharesVMWith(wide.Instance(2)) || !wide.Instance(1).SharesVMWith(wide.Instance(3)) {
		t.Fatal("wide pool does not wrap around the host's VMs")
	}
	rep := wide.Report()
	wantCPU := rep.Instances[0].Usage.UserCPU + rep.Instances[1].Usage.UserCPU
	if rep.Total.UserCPU != wantCPU {
		t.Fatalf("shared-account report total CPU %v, want distinct-account sum %v", rep.Total.UserCPU, wantCPU)
	}
}

// TestReplicatedInvokeStress is the acceptance stress bar: 72 concurrent
// invocations through a 4-replica source and 4-replica target pool under
// locality placement. Every delivery is checksummed at its concrete target
// instance; afterwards the per-instance accounts must sum exactly to the
// per-function reports, the copy arithmetic must conserve (every payload
// crosses the kernel exactly twice, nothing else), the invoker plane must
// account every invocation, and the FD tables, channel cache and kernel
// page pools must sit exactly at their warmed baselines. Run under -race.
func TestReplicatedInvokeStress(t *testing.T) {
	p := roadrunner.New()
	defer p.Close()
	src := deployPool(t, p, "s", 4)
	dst := deployPool(t, p, "d", 4)

	const n = 8 << 10
	// Warm every same-node instance pair (the only pairs locality can
	// pick), so the stress round runs against a fully established channel
	// cache and the FD baseline is exact.
	for _, si := range src.Instances() {
		for _, di := range dst.Instances() {
			if si.Node() != di.Node() {
				continue
			}
			inv, err := p.InvokeCtx(bg, src, dst, n,
				roadrunner.WithSourceInstance(si), roadrunner.WithTargetInstance(di))
			if err != nil {
				t.Fatalf("warm %s->%s: %v", si.Name(), di.Name(), err)
			}
			if err := inv.Target.Release(inv.Ref); err != nil {
				t.Fatal(err)
			}
		}
	}
	baseSrcFDs := roadrunner.TestingInstanceFDs(src)
	baseDstFDs := roadrunner.TestingInstanceFDs(dst)
	basePool := map[string]int64{
		"edge":  roadrunner.TestingPoolResident(p, "edge"),
		"cloud": roadrunner.TestingPoolResident(p, "cloud"),
	}
	baseChan := p.ChannelStats()
	if baseChan.Active != 8 {
		t.Fatalf("warmed channel cache holds %d channels, want 8 (one per same-node instance pair)", baseChan.Active)
	}
	baseSrc, baseDst := src.Report(), dst.Report()

	const invocations = 72
	var wg sync.WaitGroup
	for g := 0; g < invocations; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inv, err := p.InvokeCtx(bg, src, dst, n)
			if err != nil {
				t.Errorf("invoke: %v", err)
				return
			}
			if inv.Report.Mode != "kernel" {
				t.Errorf("locality routed mode %q, want kernel", inv.Report.Mode)
			}
			if inv.Source.Node() != inv.Target.Node() {
				t.Errorf("locality paired %s with %s across nodes", inv.Source.Name(), inv.Target.Name())
			}
			sum, err := inv.Target.Checksum(inv.Ref)
			if err != nil {
				t.Errorf("checksum at %s: %v", inv.Target.Name(), err)
				return
			}
			if want := roadrunner.ExpectedChecksum(n); sum != want {
				t.Errorf("%s: checksum %#x, want %#x", inv.Target.Name(), sum, want)
			}
		}()
	}
	wg.Wait()

	// Per-instance accounts must sum exactly to the per-function report.
	for _, rep := range []roadrunner.FunctionReport{src.Report(), dst.Report()} {
		var kernelCopy, userCopy, syscalls int64
		for _, inst := range rep.Instances {
			kernelCopy += inst.Usage.KernelCopyBytes
			userCopy += inst.Usage.UserCopyBytes
			syscalls += inst.Usage.Syscalls
		}
		if kernelCopy != rep.Total.KernelCopyBytes || userCopy != rep.Total.UserCopyBytes || syscalls != rep.Total.Syscalls {
			t.Fatalf("%s: per-instance sums (kernel=%d user=%d sys=%d) != totals %+v",
				rep.Function, kernelCopy, userCopy, syscalls, rep.Total)
		}
	}
	// Copy conservation: each kernel-space invocation crosses the kernel
	// exactly twice (copy_from_user at the source, copy into the target's
	// linear memory), and nothing on this path copies in user space.
	srcRep, dstRep := src.Report(), dst.Report()
	kernelDelta := srcRep.Total.KernelCopyBytes - baseSrc.Total.KernelCopyBytes +
		dstRep.Total.KernelCopyBytes - baseDst.Total.KernelCopyBytes
	if want := int64(invocations * 2 * n); kernelDelta != want {
		t.Fatalf("kernel copy delta = %d, want %d", kernelDelta, want)
	}
	if srcRep.Total.UserCopyBytes != baseSrc.Total.UserCopyBytes ||
		dstRep.Total.UserCopyBytes != baseDst.Total.UserCopyBytes {
		t.Fatal("kernel-space stress charged user-space copies")
	}
	// The invoker plane accounted every invocation on both sides, nothing
	// is left in flight, and the load spread across the pool.
	for side, pair := range map[string][2]roadrunner.FunctionReport{
		"src": {baseSrc, srcRep}, "dst": {baseDst, dstRep},
	} {
		var routed int64
		busy := 0
		for i, inst := range pair[1].Instances {
			if inst.InFlight != 0 {
				t.Fatalf("%s instance %s still in flight", side, inst.Instance)
			}
			delta := inst.Invocations - pair[0].Instances[i].Invocations
			routed += delta
			if delta > 0 {
				busy++
			}
		}
		if routed != invocations {
			t.Fatalf("%s side routed %d invocations, want %d", side, routed, invocations)
		}
		if busy < 2 {
			t.Fatalf("%s side: all %d invocations landed on one instance", side, invocations)
		}
	}
	// FD, channel and page-pool baselines: warm channels were reused (no
	// new descriptors), and every payload fully drained from the kernels.
	if got := roadrunner.TestingInstanceFDs(src); fmt.Sprint(got) != fmt.Sprint(baseSrcFDs) {
		t.Fatalf("src FDs %v, want baseline %v", got, baseSrcFDs)
	}
	if got := roadrunner.TestingInstanceFDs(dst); fmt.Sprint(got) != fmt.Sprint(baseDstFDs) {
		t.Fatalf("dst FDs %v, want baseline %v", got, baseDstFDs)
	}
	for node, want := range basePool {
		if got := roadrunner.TestingPoolResident(p, node); got != want {
			t.Fatalf("%s page pool resident %d, want baseline %d", node, got, want)
		}
	}
	if st := p.ChannelStats(); st.Active != baseChan.Active || st.Misses != baseChan.Misses {
		t.Fatalf("channel cache %+v, want active/misses at baseline %+v", st, baseChan)
	}
}

// TestChainNamesFailingHop: chain errors must carry the 1-based hop index,
// the hop count and the concrete endpoint names.
func TestChainNamesFailingHop(t *testing.T) {
	p := roadrunner.New()
	defer p.Close()
	deploy := func(name, node string) *roadrunner.Function {
		f, err := p.Deploy(roadrunner.FunctionSpec{Name: name, Node: node})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b, c := deploy("a", "edge"), deploy("b", "edge"), deploy("c", "cloud")
	// Hop 1 (a->b) is a legal kernel transfer; hop 2 (b->c) crosses nodes
	// and must fail under the forced kernel mode, naming itself.
	_, _, err := p.ChainCtx(bg, 16<<10, []*roadrunner.Function{a, b, c},
		roadrunner.WithMode(roadrunner.ModeKernelSpace))
	if err == nil {
		t.Fatal("cross-node kernel hop must fail")
	}
	if !errors.Is(err, roadrunner.ErrModeUnavailable) {
		t.Fatalf("chain error = %v, want ErrModeUnavailable", err)
	}
	for _, want := range []string{"hop 2/2", "b", "c"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("chain error %q does not name %q", err, want)
		}
	}
}
