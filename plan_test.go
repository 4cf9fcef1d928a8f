// Tests for the Plan/Submit plane: builder validation (typed *PlanError
// naming the offending node), DAG execution through the worker pool with
// dependency gating and per-node progress, and asynchronous collection
// (a submitted Cast, an abandoned Wait, Fanout's per-target refs).
package roadrunner_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// planFixture deploys a 4-function topology: a (edge), b (edge, own shim),
// c and d (cloud).
func planFixture(t *testing.T) (*roadrunner.Platform, [4]*roadrunner.Function) {
	t.Helper()
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"))
	t.Cleanup(p.Close)
	var fns [4]*roadrunner.Function
	for i, spec := range []roadrunner.FunctionSpec{
		{Name: "a", Node: "edge"},
		{Name: "b", Node: "edge"},
		{Name: "c", Node: "cloud"},
		{Name: "d", Node: "cloud"},
	} {
		f, err := p.Deploy(spec)
		if err != nil {
			t.Fatal(err)
		}
		fns[i] = f
	}
	return p, fns
}

// submitOne submits a plan of the one node build declares — the asynchronous
// form of the matching one-shot verb — and returns the job with that node.
func submitOne(ctx context.Context, p *roadrunner.Platform, build func(*roadrunner.Plan) *roadrunner.PlanNode) (*roadrunner.Job, *roadrunner.PlanNode, error) {
	pl := roadrunner.NewPlan()
	node := build(pl)
	job, err := p.Submit(ctx, pl)
	return job, node, err
}

// awaitNode blocks until the job's node completes and returns its outcome.
func awaitNode(t testing.TB, job *roadrunner.Job, node *roadrunner.PlanNode) roadrunner.NodeResult {
	t.Helper()
	<-job.NodeDone(node)
	nr, ok := job.NodeResult(node)
	if !ok {
		t.Fatalf("node %s: NodeDone closed but NodeResult not ready", node.Label())
	}
	return nr
}

func TestPlanValidationNamesOffendingNode(t *testing.T) {
	p, fns := planFixture(t)
	a, b, c := fns[0], fns[1], fns[2]

	t.Run("cycle", func(t *testing.T) {
		pl := roadrunner.NewPlan()
		n1 := pl.Invoke(a, b, 1024).Named("first")
		n2 := pl.Xfer(b, c).Named("second").After(n1)
		n1.After(n2)
		_, err := p.Submit(context.Background(), pl)
		var perr *roadrunner.PlanError
		if !errors.As(err, &perr) {
			t.Fatalf("cyclic plan = %v, want *PlanError", err)
		}
		if perr.Node != "first" && perr.Node != "second" {
			t.Fatalf("cycle error names node %q, want first or second", perr.Node)
		}
	})

	t.Run("nil function", func(t *testing.T) {
		pl := roadrunner.NewPlan()
		pl.Xfer(a, nil)
		_, err := p.Submit(context.Background(), pl)
		var perr *roadrunner.PlanError
		if !errors.As(err, &perr) || perr.Node != "xfer#0" {
			t.Fatalf("nil-function plan = %v, want *PlanError on xfer#0", err)
		}
	})

	t.Run("foreign platform", func(t *testing.T) {
		other := roadrunner.New(roadrunner.WithNodes("edge"))
		defer other.Close()
		foreign, err := other.Deploy(roadrunner.FunctionSpec{Name: "x", Node: "edge"})
		if err != nil {
			t.Fatal(err)
		}
		pl := roadrunner.NewPlan()
		pl.Xfer(a, foreign)
		if _, err := p.Submit(context.Background(), pl); err == nil ||
			!strings.Contains(err.Error(), "different platform") {
			t.Fatalf("foreign-function plan = %v, want different-platform PlanError", err)
		}
	})

	t.Run("multicast forced mode", func(t *testing.T) {
		pl := roadrunner.NewPlan()
		pl.Cast(a, []*roadrunner.Function{c}, roadrunner.WithMode(roadrunner.ModeKernelSpace))
		_, err := p.Submit(context.Background(), pl)
		if !errors.Is(err, roadrunner.ErrModeUnavailable) {
			t.Fatalf("forced-mode cast plan = %v, want ErrModeUnavailable", err)
		}
	})

	t.Run("unreachable forced mode", func(t *testing.T) {
		pl := roadrunner.NewPlan()
		pl.Xfer(a, b, roadrunner.WithMode(roadrunner.ModeUserSpace)) // separate shims
		_, err := p.Submit(context.Background(), pl)
		if !errors.Is(err, roadrunner.ErrModeUnavailable) {
			t.Fatalf("unreachable-mode plan = %v, want ErrModeUnavailable", err)
		}
	})

	t.Run("short chain", func(t *testing.T) {
		pl := roadrunner.NewPlan()
		pl.Hop(1024, []*roadrunner.Function{a})
		_, err := p.Submit(context.Background(), pl)
		var perr *roadrunner.PlanError
		if !errors.As(err, &perr) || perr.Op != "hop" {
			t.Fatalf("short chain plan = %v, want hop *PlanError", err)
		}
	})

	t.Run("empty plan", func(t *testing.T) {
		if _, err := p.Submit(context.Background(), roadrunner.NewPlan()); err == nil {
			t.Fatal("empty plan submitted without error")
		}
	})

	t.Run("foreign dependency", func(t *testing.T) {
		otherPlan := roadrunner.NewPlan()
		foreignNode := otherPlan.Xfer(a, b)
		pl := roadrunner.NewPlan()
		pl.Xfer(a, b).After(foreignNode)
		if _, err := p.Submit(context.Background(), pl); err == nil ||
			!strings.Contains(err.Error(), "different plan") {
			t.Fatalf("foreign-dependency plan = %v, want different-plan PlanError", err)
		}
	})
}

// TestPlanDAGExecution drives a diamond DAG — invoke a->b, then two parallel
// transfers b->c and b->d, then a final chain d->a — checking per-node
// results, dependency ordering via NodeDone, progress, and the aggregate
// report.
func TestPlanDAGExecution(t *testing.T) {
	p, fns := planFixture(t)
	a, b, c, d := fns[0], fns[1], fns[2], fns[3]
	const n = 32 << 10

	pl := roadrunner.NewPlan()
	produce := pl.Invoke(a, b, n).Named("produce")
	// From wires the invoke's delivered region (at its concrete landing
	// instance) in as each transfer's source — the DAG's dataflow edges.
	toC := pl.Xfer(b, c).Named("to-c").From(produce)
	toD := pl.Xfer(b, d).Named("to-d").From(produce)
	back := pl.Hop(n, []*roadrunner.Function{d, a}).Named("back").After(toC, toD)

	job, err := p.Submit(context.Background(), pl)
	if err != nil {
		t.Fatal(err)
	}

	// Dependency order: produce must land before to-c may land.
	<-job.NodeDone(toC)
	if _, ok := job.NodeResult(produce); !ok {
		t.Fatal("to-c completed before its dependency produce")
	}

	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("plan failed: %v", res.Err)
	}
	if done, total := job.Progress(); done != 4 || total != 4 {
		t.Fatalf("progress = %d/%d, want 4/4", done, total)
	}

	inv := res.Node(produce).Invocation
	if inv == nil || inv.Report.Mode != "kernel" {
		t.Fatalf("produce node invocation = %+v, want kernel-mode Invocation", inv)
	}
	for _, nd := range []*roadrunner.PlanNode{toC, toD} {
		nr := res.Node(nd)
		if nr.Err != nil {
			t.Fatalf("%s: %v", nd.Label(), nr.Err)
		}
		if nr.Report().Mode != "network" {
			t.Fatalf("%s mode = %q, want network", nd.Label(), nr.Report().Mode)
		}
	}
	// The final chain's delivery checksums at a.
	sum, err := checksumAtOwner(res.Node(back).Ref())
	if err != nil {
		t.Fatal(err)
	}
	if want := roadrunner.ExpectedChecksum(n); sum != want {
		t.Fatalf("final checksum = %#x, want %#x", sum, want)
	}
	// Aggregate report: invoke (1 hop) + 2 transfers + 1-hop chain = 4n.
	if res.Report.Bytes != int64(4*n) {
		t.Fatalf("aggregate bytes = %d, want %d", res.Report.Bytes, 4*n)
	}
	if res.Report.Mode != "plan" {
		t.Fatalf("aggregate mode = %q, want plan", res.Report.Mode)
	}
}

// TestPlanDependencyFailureSkipsDependents: a failing node's dependents are
// skipped with the dependency's error, while independent branches complete.
func TestPlanDependencyFailureSkipsDependents(t *testing.T) {
	p, fns := planFixture(t)
	a, b, c := fns[0], fns[1], fns[2]
	const n = 8 << 10

	pl := roadrunner.NewPlan()
	// A dynamic failure validation cannot see: a pinned source region far
	// outside b's linear memory fails inside the transfer's egress.
	bad := pl.Xfer(b, c, roadrunner.WithSourceRef(roadrunner.DataRef{Ptr: 1 << 30, Len: 64})).Named("bad")
	dep := pl.Xfer(c, a).Named("dep").After(bad)
	good := pl.Invoke(a, b, n).Named("good")

	job, err := p.Submit(context.Background(), pl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Node(bad).Err == nil {
		t.Fatal("bad node succeeded, want no-output failure")
	}
	depErr := res.Node(dep).Err
	if depErr == nil || !strings.Contains(depErr.Error(), "dependency bad") {
		t.Fatalf("dependent error = %v, want wrapped dependency failure", depErr)
	}
	if res.Node(good).Err != nil {
		t.Fatalf("independent branch failed: %v", res.Node(good).Err)
	}
	if res.Err == nil {
		t.Fatal("aggregate Err is nil despite node failures")
	}
}

// TestJobWaitCtx: a Wait bounded by an expiring context abandons the wait
// without cancelling the job; a later unbounded Wait collects the result.
func TestJobWaitCtx(t *testing.T) {
	p, fns := planFixture(t)
	a, b := fns[0], fns[1]

	gateRelease := make(chan struct{})
	pl := roadrunner.NewPlan()
	node := pl.Invoke(a, b, 8<<10, roadrunner.TestingWithGates(func() { <-gateRelease }))
	job, err := p.Submit(context.Background(), pl)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := job.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded Wait = %v, want DeadlineExceeded", err)
	}
	close(gateRelease)
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if nr := res.Node(node); nr.Err != nil {
		t.Fatalf("job failed after abandoned wait: %v", nr.Err)
	}
}

// TestSubmittedCast: a submitted Cast node delivers to every target with
// checksummed payloads, collected through a context-bounded Wait.
func TestSubmittedCast(t *testing.T) {
	p, fns := planFixture(t)
	a, c, d := fns[0], fns[2], fns[3]
	const n = 16 << 10
	if err := a.Produce(n); err != nil {
		t.Fatal(err)
	}
	job, node, err := submitOne(bg, p, func(pl *roadrunner.Plan) *roadrunner.PlanNode {
		return pl.Cast(a, []*roadrunner.Function{c, d})
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	nr := res.Node(node)
	if nr.Err != nil {
		t.Fatal(nr.Err)
	}
	refs, reports := nr.Refs, nr.Reports
	if len(refs) != 2 || len(reports) != 2 {
		t.Fatalf("submitted cast: %d refs / %d reports, want 2/2", len(refs), len(reports))
	}
	for i, dst := range []*roadrunner.Function{c, d} {
		if owner, _ := roadrunner.TestingOwner(refs[i].Instance()); owner != dst {
			t.Fatalf("target %d: ref not owned by %s", i, dst.Name())
		}
		if reports[i].Mode != "network-multicast" {
			t.Fatalf("target %d mode = %q", i, reports[i].Mode)
		}
		sum, err := checksumAtOwner(refs[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := roadrunner.ExpectedChecksum(n); sum != want {
			t.Fatalf("target %d checksum = %#x, want %#x", i, sum, want)
		}
	}
}

// TestAbandonedWaitNodeStillResolves: an expired context abandons the wait on a submitted
// Xfer; the node still resolves, once, for NodeDone and a later Wait.
func TestAbandonedWaitNodeStillResolves(t *testing.T) {
	p, fns := planFixture(t)
	a, c := fns[0], fns[2]
	if err := a.Produce(8 << 10); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	job, node, err := submitOne(bg, p, func(pl *roadrunner.Plan) *roadrunner.PlanNode {
		return pl.Xfer(a, c, roadrunner.TestingWithGates(func() { <-release }))
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := job.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded Wait = %v, want DeadlineExceeded", err)
	}
	if _, ok := job.NodeResult(node); ok {
		t.Fatal("NodeResult ready while the transfer is gated on the wire")
	}
	close(release)
	if nr := awaitNode(t, job, node); nr.Err != nil {
		t.Fatalf("node after abandoned wait: %v", nr.Err)
	}
	if res, err := job.Wait(context.Background()); err != nil || res.Err != nil {
		t.Fatalf("job after abandoned wait: %v / %v", err, res)
	}
}

// TestPlanReuse: a Plan is a pure declaration — submitting it twice executes
// it twice, results living in each Job.
func TestPlanReuse(t *testing.T) {
	p, fns := planFixture(t)
	a, b := fns[0], fns[1]
	const n = 4 << 10

	pl := roadrunner.NewPlan()
	node := pl.Invoke(a, b, n)
	for round := 0; round < 2; round++ {
		job, err := p.Submit(context.Background(), pl)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		res, err := job.Wait(context.Background())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if nr := res.Node(node); nr.Err != nil {
			t.Fatalf("round %d: %v", round, nr.Err)
		}
	}
	if got := b.Instance(0).Invocations(); got < 2 {
		t.Fatalf("target invocations = %d, want >= 2", got)
	}
}

// TestPlanConcurrentSubmissions floods the plane with concurrent jobs over
// disjoint pairs (run under -race in CI).
func TestPlanConcurrentSubmissions(t *testing.T) {
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"), roadrunner.WithWorkers(4))
	defer p.Close()
	const pairs = 4
	jobs := make([]*roadrunner.Job, pairs)
	nodes := make([]*roadrunner.PlanNode, pairs)
	for i := 0; i < pairs; i++ {
		wf := roadrunner.Workflow{Name: fmt.Sprintf("wf-%d", i), Tenant: "plan"}
		src, err := p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("s%d", i), Node: "edge", Workflow: wf})
		if err != nil {
			t.Fatal(err)
		}
		dst, err := p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("d%d", i), Node: "cloud", Workflow: wf})
		if err != nil {
			t.Fatal(err)
		}
		pl := roadrunner.NewPlan()
		inv := pl.Invoke(src, dst, 16<<10)
		pl.Xfer(dst, src).After(inv)
		nodes[i] = inv
		if jobs[i], err = p.Submit(context.Background(), pl); err != nil {
			t.Fatal(err)
		}
	}
	for i, job := range jobs {
		res, err := job.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if res.Err != nil {
			t.Fatalf("job %d: %v", i, res.Err)
		}
		if res.Node(nodes[i]).Invocation == nil {
			t.Fatalf("job %d: missing invocation", i)
		}
	}
}
