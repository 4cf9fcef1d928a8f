// Stress and semantics tests for the concurrent transfer engine: overlapping
// transfers across all three modes with per-transfer integrity and exact
// copy accounting, plus asynchronous execution (Submit + Job). All of it must stay
// clean under `go test -race`.
package roadrunner_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// stressPair is one exclusively-owned function pair of a given mode.
type stressPair struct {
	src, dst *roadrunner.Function
	mode     roadrunner.Mode
	payload  int
}

// deployStressPairs builds `perMode` disjoint pairs of every transfer mode
// on one platform. Each pair gets its own workflow (hence its own shims and
// VMs), so pairs share nothing but the platform, kernels and page pools.
func deployStressPairs(t testing.TB, p *roadrunner.Platform, perMode int) []stressPair {
	t.Helper()
	var pairs []stressPair
	for i := 0; i < perMode; i++ {
		wf := func(mode string) roadrunner.Workflow {
			return roadrunner.Workflow{Name: fmt.Sprintf("%s-%d", mode, i), Tenant: "stress"}
		}
		deploy := func(name, node string, w roadrunner.Workflow, share *roadrunner.Function) *roadrunner.Function {
			f, err := p.Deploy(roadrunner.FunctionSpec{Name: name, Node: node, Workflow: w, ShareVMWith: share})
			if err != nil {
				t.Fatalf("deploy %s: %v", name, err)
			}
			return f
		}
		// Distinct payload sizes per pair so a cross-delivered payload
		// can never produce the right checksum.
		payload := 8<<10 + 512*i

		uw := wf("user")
		ua := deploy(fmt.Sprintf("ua%d", i), "edge", uw, nil)
		ub := deploy(fmt.Sprintf("ub%d", i), "edge", uw, ua)
		pairs = append(pairs, stressPair{src: ua, dst: ub, mode: roadrunner.ModeUserSpace, payload: payload})

		kw := wf("kernel")
		ka := deploy(fmt.Sprintf("ka%d", i), "edge", kw, nil)
		kb := deploy(fmt.Sprintf("kb%d", i), "edge", kw, nil)
		pairs = append(pairs, stressPair{src: ka, dst: kb, mode: roadrunner.ModeKernelSpace, payload: payload + 128})

		nw := wf("network")
		na := deploy(fmt.Sprintf("na%d", i), "edge", nw, nil)
		nb := deploy(fmt.Sprintf("nb%d", i), "cloud", nw, nil)
		pairs = append(pairs, stressPair{src: na, dst: nb, mode: roadrunner.ModeNetwork, payload: payload + 256})
	}
	return pairs
}

// checkAccounting asserts the paper's copy arithmetic for one transfer —
// the conservation property that must survive arbitrary interleaving:
// user space moves the payload with exactly one user-space copy; kernel
// space crosses the kernel exactly twice (copy_from_user + copy_to_user);
// the network hose is near-zero-copy, with only the final write into the
// target VM's linear memory.
func checkAccounting(t *testing.T, mode roadrunner.Mode, n int, rep roadrunner.Report) {
	t.Helper()
	if rep.Bytes != int64(n) {
		t.Errorf("%v: report bytes = %d, want %d", mode, rep.Bytes, n)
	}
	switch mode {
	case roadrunner.ModeUserSpace:
		if rep.Usage.UserCopyBytes != int64(n) || rep.Usage.KernelCopyBytes != 0 {
			t.Errorf("user: copies user=%d kernel=%d, want %d/0",
				rep.Usage.UserCopyBytes, rep.Usage.KernelCopyBytes, n)
		}
		if rep.Usage.Syscalls != 0 {
			t.Errorf("user: %d syscalls, want 0", rep.Usage.Syscalls)
		}
	case roadrunner.ModeKernelSpace:
		if rep.Usage.KernelCopyBytes != int64(2*n) || rep.Usage.UserCopyBytes != 0 {
			t.Errorf("kernel: copies user=%d kernel=%d, want 0/%d",
				rep.Usage.UserCopyBytes, rep.Usage.KernelCopyBytes, 2*n)
		}
	case roadrunner.ModeNetwork:
		if rep.Usage.UserCopyBytes != int64(n) || rep.Usage.KernelCopyBytes != 0 {
			t.Errorf("network: copies user=%d kernel=%d, want %d/0 (near-zero-copy)",
				rep.Usage.UserCopyBytes, rep.Usage.KernelCopyBytes, n)
		}
	}
}

// TestConcurrentTransferStress fires ≥64 overlapping transfers (8 pairs ×
// 3 modes × 3 iterations = 72) and asserts, per transfer, delivery
// integrity (checksum of the pair's unique payload) and conserved copy
// accounting.
func TestConcurrentTransferStress(t *testing.T) {
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"))
	defer p.Close()
	pairs := deployStressPairs(t, p, 8)

	const iters = 3
	var wg sync.WaitGroup
	for _, pair := range pairs {
		pair := pair
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if err := pair.src.Produce(pair.payload); err != nil {
					t.Errorf("%v produce: %v", pair.mode, err)
					return
				}
				ref, rep, err := p.TransferCtx(bg, pair.src, pair.dst, roadrunner.WithMode(pair.mode))
				if err != nil {
					t.Errorf("%v transfer: %v", pair.mode, err)
					return
				}
				if rep.Mode != pair.mode.String() {
					t.Errorf("mode = %q, want %q", rep.Mode, pair.mode)
				}
				checkAccounting(t, pair.mode, pair.payload, rep)
				sum, err := pair.dst.Checksum(ref)
				if err != nil {
					t.Errorf("%v checksum: %v", pair.mode, err)
					return
				}
				if want := roadrunner.ExpectedChecksum(pair.payload); sum != want {
					t.Errorf("%v: checksum %#x, want %#x (payload %d)", pair.mode, sum, want, pair.payload)
				}
				if err := pair.dst.Release(ref); err != nil {
					t.Errorf("%v release: %v", pair.mode, err)
				}
				if out, err := pair.src.Output(); err == nil {
					_ = pair.src.Release(out)
				}
			}
		}()
	}
	wg.Wait()
}

// TestSubmittedXferMatchesSync drives one submitted Xfer job per pair
// concurrently and checks each yields exactly what TransferCtx would.
func TestSubmittedXferMatchesSync(t *testing.T) {
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"), roadrunner.WithWorkers(4))
	defer p.Close()
	pairs := deployStressPairs(t, p, 4)

	jobs := make([]*roadrunner.Job, len(pairs))
	nodes := make([]*roadrunner.PlanNode, len(pairs))
	for i, pair := range pairs {
		if err := pair.src.Produce(pair.payload); err != nil {
			t.Fatal(err)
		}
		var err error
		jobs[i], nodes[i], err = submitOne(bg, p, func(pl *roadrunner.Plan) *roadrunner.PlanNode {
			return pl.Xfer(pair.src, pair.dst, roadrunner.WithMode(pair.mode))
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i := range jobs {
		nr := awaitNode(t, jobs[i], nodes[i])
		if nr.Err != nil {
			t.Fatalf("job %d: %v", i, nr.Err)
		}
		checkAccounting(t, pairs[i].mode, pairs[i].payload, nr.Report())
		sum, err := pairs[i].dst.Checksum(nr.Ref())
		if err != nil {
			t.Fatal(err)
		}
		if want := roadrunner.ExpectedChecksum(pairs[i].payload); sum != want {
			t.Fatalf("job %d: checksum %#x, want %#x", i, sum, want)
		}
	}
	if st := p.SchedulerStats(); st.Submitted != int64(len(pairs)) {
		t.Fatalf("scheduler stats = %+v, want %d submitted", st, len(pairs))
	}
	// The completed counter is incremented by the worker after the node is
	// published, so it may trail NodeDone momentarily; poll instead of
	// asserting.
	deadline := time.Now().Add(2 * time.Second)
	for p.SchedulerStats().Completed != int64(len(pairs)) {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler stats = %+v, want %d completed", p.SchedulerStats(), len(pairs))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmittedChainsPipelineIndependently runs several multi-hop chains as
// one batch of submitted Hop jobs.
func TestSubmittedChainsPipelineIndependently(t *testing.T) {
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"), roadrunner.WithWorkers(4))
	defer p.Close()

	const chains = 4
	const n = 16 << 10
	jobs := make([]*roadrunner.Job, chains)
	nodes := make([]*roadrunner.PlanNode, chains)
	lasts := make([]*roadrunner.Function, chains)
	for i := 0; i < chains; i++ {
		wf := roadrunner.Workflow{Name: fmt.Sprintf("chain-%d", i), Tenant: "async"}
		a, err := p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("ca%d", i), Node: "edge", Workflow: wf})
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("cb%d", i), Node: "edge", Workflow: wf, ShareVMWith: a})
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("cc%d", i), Node: "cloud", Workflow: wf})
		if err != nil {
			t.Fatal(err)
		}
		lasts[i] = c
		jobs[i], nodes[i], err = submitOne(bg, p, func(pl *roadrunner.Plan) *roadrunner.PlanNode {
			return pl.Hop(n, []*roadrunner.Function{a, b, c})
		})
		if err != nil {
			t.Fatalf("submit chain %d: %v", i, err)
		}
	}
	for i := range jobs {
		nr := awaitNode(t, jobs[i], nodes[i])
		if nr.Err != nil {
			t.Fatalf("chain %d: %v", i, nr.Err)
		}
		if rep := nr.Report(); rep.Bytes != 2*n {
			t.Fatalf("chain %d: merged bytes = %d, want %d", i, rep.Bytes, 2*n)
		}
		sum, err := lasts[i].Checksum(nr.Ref())
		if err != nil {
			t.Fatal(err)
		}
		if want := roadrunner.ExpectedChecksum(n); sum != want {
			t.Fatalf("chain %d: checksum %#x, want %#x", i, sum, want)
		}
	}
}

// TestFanoutPerTargetCompletion delivers one payload to several remote targets as ONE job
// of one Xfer node per target, every node pinned to the produced region and
// its instance: each target's delivery is collected off its own NodeDone
// channel as it lands, all flows modeled as sharing the link.
func TestFanoutPerTargetCompletion(t *testing.T) {
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"))
	defer p.Close()
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]*roadrunner.Function, 4)
	for i := range targets {
		if targets[i], err = p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("t%d", i), Node: "cloud"}); err != nil {
			t.Fatal(err)
		}
	}
	const n = 8 << 10
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	si := src.ActiveInstance()
	out, err := si.Output()
	if err != nil {
		t.Fatal(err)
	}
	pl := roadrunner.NewPlan()
	nodes := make([]*roadrunner.PlanNode, len(targets))
	for i, dst := range targets {
		nodes[i] = pl.Xfer(src, dst, roadrunner.WithSourceInstance(si),
			roadrunner.WithSourceRef(out), roadrunner.WithFlows(len(targets)))
	}
	job, err := p.Submit(bg, pl)
	if err != nil {
		t.Fatal(err)
	}
	for i, node := range nodes {
		nr := awaitNode(t, job, node)
		if nr.Err != nil {
			t.Fatalf("target %d: %v", i, nr.Err)
		}
		if mode := nr.Report().Mode; mode != "network" {
			t.Fatalf("target %d: mode %q", i, mode)
		}
		sum, err := targets[i].Checksum(nr.Ref())
		if err != nil {
			t.Fatal(err)
		}
		if want := roadrunner.ExpectedChecksum(n); sum != want {
			t.Fatalf("target %d: checksum %#x, want %#x", i, sum, want)
		}
	}
	<-job.Done()
	if done, total := job.Progress(); done != len(targets) || total != len(targets) {
		t.Fatalf("progress = %d/%d, want %d/%d", done, total, len(targets), len(targets))
	}
}

// TestSubmitAfterCloseIsRejected: a submission on a closed platform
// is rejected with ErrClosed at once — no Job to hang on.
func TestSubmitAfterCloseIsRejected(t *testing.T) {
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"))
	a, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: "edge"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	job, _, err := submitOne(bg, p, func(pl *roadrunner.Plan) *roadrunner.PlanNode { return pl.Xfer(a, b) })
	if !errors.Is(err, roadrunner.ErrClosed) || job != nil {
		t.Fatalf("submit on closed platform = (%v, %v), want (nil, ErrClosed)", job, err)
	}
	if _, err := p.Deploy(roadrunner.FunctionSpec{Name: "late", Node: "edge"}); err == nil {
		t.Fatal("deploy on closed platform must fail")
	}
}

// TestConcurrentDeployAndTransfer overlaps deployments with transfers —
// the registry path and the data path must not interfere.
func TestConcurrentDeployAndTransfer(t *testing.T) {
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"))
	defer p.Close()
	pairs := deployStressPairs(t, p, 2)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			wf := roadrunner.Workflow{Name: fmt.Sprintf("late-%d", i), Tenant: "stress"}
			if _, err := p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("late%d", i), Node: "cloud", Workflow: wf}); err != nil {
				t.Errorf("deploy during load: %v", err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		pair := pairs[0]
		for i := 0; i < 8; i++ {
			if err := pair.src.Produce(pair.payload); err != nil {
				t.Errorf("produce: %v", err)
				return
			}
			ref, _, err := p.TransferCtx(bg, pair.src, pair.dst)
			if err != nil {
				t.Errorf("transfer: %v", err)
				return
			}
			if err := pair.dst.Release(ref); err != nil {
				t.Errorf("release: %v", err)
			}
		}
	}()
	wg.Wait()
}
