// Closed-loop tests: independent workflows deployed on one platform run
// their executions concurrently through the public API — a produce at the
// head and a ring of streaming transfers, a shared-egress fan-out, or a
// small Plan DAG — with every delivery checksummed and every region
// released. This is the regime `bench` times; here it is only checked for
// correctness, so nothing below measures or bounds wall-clock time.
package roadrunner_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// Shapes of one workflow execution. mixed rings a user-space, a
// kernel-space and a network hop; user, kernel and network ring one pair of
// that mode; chain runs a line of hops functions alternating kernel and
// network hops; plan submits an invoke feeding two parallel transfers;
// fanout delivers one produce to targets co-located sandboxes.
const (
	shapeMixed   = "mixed"
	shapeUser    = "user"
	shapeKernel  = "kernel"
	shapeNetwork = "network"
	shapeChain   = "chain"
	shapePlan    = "plan"
	shapeFanout  = "fanout"
)

const loadPayload = 8 << 10

type loadConfig struct {
	shape     string
	workflows int
	hops      int // chain depth; the other ring shapes set their own
	targets   int // fan-out degree
	replicas  int // instance-pool size of every function (default 1)
	kills     int // highest-indexed replicas of every pool crashed mid-load
	opts      []roadrunner.Option
	deadline  time.Duration // per execution; 0 = none
}

// loadRig is a deployed closed-loop environment: one function list per
// workflow, in the order an execution visits them.
type loadRig struct {
	cfg loadConfig
	p   *roadrunner.Platform
	wfs [][]*roadrunner.Function
}

// loadTally counts executions by outcome: completed, shed by their
// context, or failed (first names the first failure).
type loadTally struct {
	mu                   sync.Mutex
	ops, cancelled, errs int
	first                error
}

func (tl *loadTally) record(err error) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	switch {
	case err == nil:
		tl.ops++
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		tl.cancelled++
	default:
		tl.errs++
		if tl.first == nil {
			tl.first = err
		}
	}
}

func newLoadRig(t *testing.T, cfg loadConfig) *loadRig {
	t.Helper()
	if cfg.replicas <= 0 {
		cfg.replicas = 1
	}
	switch cfg.shape {
	case shapeMixed:
		cfg.hops = 3
	case shapeUser, shapeKernel, shapeNetwork:
		cfg.hops = 2
	}
	p := newPlatform(t, append([]roadrunner.Option{roadrunner.WithNodes("edge", "cloud")}, cfg.opts...)...)
	r := &loadRig{cfg: cfg, p: p}
	for i := 0; i < cfg.workflows; i++ {
		wf := roadrunner.Workflow{Name: fmt.Sprintf("wf-%d", i), Tenant: "load"}
		add := func(name, node string, share *roadrunner.Function) *roadrunner.Function {
			// A replicated pool spreads over both nodes from its primary,
			// so placement decides how many hops stay on one node.
			nodes := []string{node}
			if cfg.replicas > 1 && share == nil {
				nodes = []string{node, map[string]string{"edge": "cloud", "cloud": "edge"}[node]}
			}
			return deploy(t, p, roadrunner.FunctionSpec{
				Name: fmt.Sprintf("%s-%d", name, i), Node: node, Replicas: cfg.replicas,
				Nodes: nodes, Workflow: wf, ShareVMWith: share,
			})
		}
		a := add("a", "edge", nil)
		fns := []*roadrunner.Function{a}
		switch cfg.shape {
		case shapeUser:
			fns = append(fns, add("b", "edge", a))
		case shapeKernel:
			fns = append(fns, add("b", "edge", nil))
		case shapeNetwork:
			fns = append(fns, add("b", "cloud", nil))
		case shapeMixed:
			fns = append(fns, add("b", "edge", a), add("c", "edge", nil), add("d", "cloud", nil))
		case shapePlan:
			fns = append(fns, add("b", "edge", nil), add("c", "cloud", nil), add("d", "cloud", nil))
		case shapeFanout:
			for j := 0; j < cfg.targets; j++ {
				fns = append(fns, add(fmt.Sprintf("t%d", j), "edge", nil))
			}
		case shapeChain:
			// edge, edge, cloud, cloud, edge, …: kernel and network hops
			// alternate along the line.
			for h := 1; h <= cfg.hops; h++ {
				node := "edge"
				if h%4 == 2 || h%4 == 3 {
					node = "cloud"
				}
				fns = append(fns, add(fmt.Sprintf("n%d", h), node, nil))
			}
		default:
			t.Fatalf("unknown shape %q", cfg.shape)
		}
		r.wfs = append(r.wfs, fns)
	}
	// Each doomed replica dies two data-plane syscalls in, partway through
	// its first delivery of the load rather than before it starts.
	for k := 0; k < cfg.kills; k++ {
		for _, fns := range r.wfs {
			for _, f := range fns {
				f.Instance(cfg.replicas - 1 - k).CrashAfter(2)
			}
		}
	}
	return r
}

// run deals requests executions round-robin over the workflows. Workflows
// run concurrently; each runs its own executions one at a time.
func (r *loadRig) run(requests int) *loadTally {
	tally := &loadTally{}
	var wg sync.WaitGroup
	for i, fns := range r.wfs {
		mine := requests / len(r.wfs)
		if i < requests%len(r.wfs) {
			mine++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < mine; j++ {
				tally.record(r.execute(fns))
			}
		}()
	}
	wg.Wait()
	return tally
}

// execute runs one execution under the configured deadline and releases
// every region it allocated, whatever the outcome.
func (r *loadRig) execute(fns []*roadrunner.Function) error {
	ctx := bg
	if r.cfg.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.deadline)
		defer cancel()
	}
	var held []roadrunner.DataRef
	defer func() {
		for _, ref := range held {
			_ = ref.Instance().Release(ref)
		}
	}()
	// verify checksums a delivery while it is still held.
	verify := func(ref roadrunner.DataRef) error {
		sum, err := checksumAtOwner(ref)
		if err != nil {
			return err
		}
		if want := roadrunner.ExpectedChecksum(loadPayload); sum != want {
			return fmt.Errorf("checksum at %s = %#x, want %#x", ref.Instance().Name(), sum, want)
		}
		return nil
	}

	switch r.cfg.shape {
	case shapeFanout:
		head := fns[0]
		refs, reps, err := r.p.FanoutCtx(ctx, head, fns[1:], loadPayload)
		held = append(held, refs...)
		if out, oerr := head.ActiveInstance().Output(); oerr == nil {
			held = append(held, out)
		}
		if err != nil {
			return err
		}
		if len(refs) != len(fns)-1 || len(reps) != len(refs) {
			return fmt.Errorf("fan-out to %d targets: %d refs, %d reports", len(fns)-1, len(refs), len(reps))
		}
		for i, ref := range refs {
			if reps[i].Bytes != loadPayload {
				return fmt.Errorf("fan-out report %d: %d bytes, want %d", i, reps[i].Bytes, loadPayload)
			}
			if err := verify(ref); err != nil {
				return err
			}
		}
		return nil

	case shapePlan:
		a, b, c, d := fns[0], fns[1], fns[2], fns[3]
		pl := roadrunner.NewPlan()
		inv := pl.Invoke(a, b, loadPayload)
		toC := pl.Xfer(b, c).From(inv)
		toD := pl.Xfer(b, d).From(inv)
		job, err := r.p.Submit(ctx, pl)
		if err != nil {
			return err
		}
		// The wait is unbounded: ctx bounds the work itself.
		res, err := job.Wait(bg)
		if err != nil {
			return err
		}
		for _, n := range []*roadrunner.PlanNode{inv, toC, toD} {
			if nr := res.Node(n); nr.Err == nil {
				held = append(held, nr.Ref())
			}
		}
		if in := res.Node(inv).Invocation; in != nil {
			if out, oerr := in.Source.Output(); oerr == nil {
				held = append(held, out)
			}
		}
		if res.Err != nil {
			return res.Err
		}
		for _, ref := range held[:3] {
			if err := verify(ref); err != nil {
				return err
			}
		}
		return nil
	}

	head := fns[0]
	if err := head.Produce(loadPayload); err != nil {
		return err
	}
	ref, err := head.ActiveInstance().Output()
	if err != nil {
		return err
	}
	held = append(held, ref)
	for h := 0; h < r.cfg.hops; h++ {
		src, dst := fns[h%len(fns)], fns[(h+1)%len(fns)]
		// Each hop streams the previous delivery, pinned by the transfer's
		// source stage, as ChainCtx does.
		ref, _, err = r.p.TransferCtx(ctx, src, dst, roadrunner.WithSourceRef(ref))
		if err != nil {
			return fmt.Errorf("hop %d %s->%s: %w", h, src.Name(), dst.Name(), err)
		}
		held = append(held, ref)
	}
	return verify(ref)
}

// want fails t unless the tally reads exactly ops completed, cancelled shed
// and no failure.
func (tl *loadTally) want(t *testing.T, ops, cancelled int) {
	t.Helper()
	if tl.ops != ops || tl.cancelled != cancelled || tl.errs != 0 {
		t.Fatalf("ops = %d cancelled = %d errors = %d (first: %v), want %d/%d/0",
			tl.ops, tl.cancelled, tl.errs, tl.first, ops, cancelled)
	}
}

// assertQuiet fails t if any instance of the rig still counts an operation
// in flight.
func (r *loadRig) assertQuiet(t *testing.T) {
	t.Helper()
	for _, fns := range r.wfs {
		for _, f := range fns {
			for _, inst := range f.Instances() {
				if got := inst.InFlight(); got != 0 {
					t.Errorf("%s: in-flight = %d after the load, want 0", inst.Name(), got)
				}
			}
		}
	}
}

func TestClosedLoopAllModes(t *testing.T) {
	for _, shape := range []string{shapeMixed, shapeUser, shapeKernel, shapeNetwork, shapeChain, shapePlan, shapeFanout} {
		t.Run(shape, func(t *testing.T) {
			r := newLoadRig(t, loadConfig{shape: shape, workflows: 4, hops: 3, targets: 4})
			r.run(12).want(t, 12, 0)
			r.assertQuiet(t)
		})
	}
}

// TestFanoutMode: one produce per execution is delivered to six co-located
// targets through the shared-egress tee group, one report of the whole
// payload per target and every landed copy checksummed, with the nodes'
// page pools back where the first execution left them.
func TestFanoutMode(t *testing.T) {
	r := newLoadRig(t, loadConfig{shape: shapeFanout, workflows: 2, targets: 6})
	r.run(2).want(t, 2, 0)
	nodes := []string{"edge", "cloud"}
	var fns []*roadrunner.Function
	for _, wf := range r.wfs {
		fns = append(fns, wf...)
	}
	base := snapshotBaselines(t, r.p, nodes, fns...)
	r.run(8).want(t, 8, 0)
	r.assertQuiet(t)
	assertBaselines(t, r.p, nodes, base, fns...)
}

// TestReplicatedPools drives 3-replica pools spread over both nodes under
// every placement policy, checksumming every execution's deliveries.
func TestReplicatedPools(t *testing.T) {
	for _, placement := range []roadrunner.PlacementPolicy{
		roadrunner.PlacementLocality, roadrunner.PlacementLeastLoaded, roadrunner.PlacementRoundRobin,
	} {
		for _, shape := range []string{shapeMixed, shapeChain, shapePlan} {
			t.Run(placement.String()+"/"+shape, func(t *testing.T) {
				r := newLoadRig(t, loadConfig{
					shape: shape, workflows: 2, hops: 3, replicas: 3,
					opts: []roadrunner.Option{roadrunner.WithPlacement(placement)},
				})
				r.run(8).want(t, 8, 0)
				r.assertQuiet(t)
			})
		}
	}
}

// TestKillsDegradeNotCollapse crashes one replica of every 4-replica pool
// partway into its first delivery. Health-aware retry with exclusion must
// keep at least three in four executions completing on the survivors under
// every placement policy; a few may fail while the health state converges,
// and none may be reported as cancelled.
func TestKillsDegradeNotCollapse(t *testing.T) {
	for _, placement := range []roadrunner.PlacementPolicy{
		roadrunner.PlacementLocality, roadrunner.PlacementLeastLoaded, roadrunner.PlacementRoundRobin,
	} {
		t.Run(placement.String(), func(t *testing.T) {
			const requests = 80
			r := newLoadRig(t, loadConfig{
				shape: shapeKernel, workflows: 2, replicas: 4, kills: 1,
				opts: []roadrunner.Option{roadrunner.WithPlacement(placement)},
			})
			tl := r.run(requests)
			if tl.ops+tl.errs != requests || tl.cancelled != 0 {
				t.Fatalf("ops = %d errors = %d cancelled = %d, want %d in all and none cancelled",
					tl.ops, tl.errs, tl.cancelled, requests)
			}
			if tl.ops < requests*3/4 {
				t.Fatalf("only %d/%d executions survived the kill (first failure: %v)", tl.ops, requests, tl.first)
			}
			for _, fns := range r.wfs {
				for _, f := range fns {
					if doomed := f.Instance(3); doomed.Health() == roadrunner.HealthHealthy {
						t.Errorf("%s: crashed replica still healthy after the load", doomed.Name())
					}
				}
			}
			r.assertQuiet(t)
		})
	}
}

// TestMemoryStaysBoundedAcrossManyExecutions runs far more executions on
// one mixed workflow than its linear memories could absorb if a region
// leaked, and requires FDs, page pools, channels, residency and every
// guest allocator back where the first execution left them.
func TestMemoryStaysBoundedAcrossManyExecutions(t *testing.T) {
	r := newLoadRig(t, loadConfig{shape: shapeMixed, workflows: 1})
	r.run(1).want(t, 1, 0)
	nodes := []string{"edge", "cloud"}
	base := snapshotBaselines(t, r.p, nodes, r.wfs[0]...)
	r.run(200).want(t, 200, 0)
	assertBaselines(t, r.p, nodes, base, r.wfs[0]...)
}

// TestColdChannelsRegime: under load, each directed pair's first transfer
// is cold — one cache miss — and every later transfer over it hits.
func TestColdChannelsRegime(t *testing.T) {
	for _, tc := range []struct {
		name         string
		executions   int
		hits, misses int64
	}{
		// One execution per workflow: every transfer opens its pair's
		// channel, 2 workflows × 2 directed pairs (a→b and the return hop
		// b→a).
		{"cold", 2, 0, 4},
		// The same four pairs miss once each; the other 8×2 − 4
		// transfers hit.
		{"warm", 8, 12, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newLoadRig(t, loadConfig{shape: shapeNetwork, workflows: 2})
			r.run(tc.executions).want(t, tc.executions, 0)
			if st := r.p.ChannelStats(); st.Hits != tc.hits || st.Misses != tc.misses {
				t.Fatalf("channel cache hits/misses = %d/%d, want %d/%d", st.Hits, st.Misses, tc.hits, tc.misses)
			}
		})
	}
}

// TestChainDepth: a five-hop line of dedicated functions (no ring wrap)
// delivers a checksum-clean payload through every kernel and network hop.
func TestChainDepth(t *testing.T) {
	r := newLoadRig(t, loadConfig{shape: shapeChain, workflows: 2, hops: 5})
	if got := len(r.wfs[0]); got != 6 {
		t.Fatalf("chain of 5 hops deployed %d functions, want 6", got)
	}
	r.run(6).want(t, 6, 0)
	r.assertQuiet(t)
}

// TestPlanModeDrivesDAG: the invoke + two-transfer DAG, submitted over and
// over, checksums at all three deliveries and leaves every baseline where
// the first submission left it (its releases rewind every allocator).
func TestPlanModeDrivesDAG(t *testing.T) {
	r := newLoadRig(t, loadConfig{shape: shapePlan, workflows: 2})
	r.run(2).want(t, 2, 0)
	nodes := []string{"edge", "cloud"}
	var fns []*roadrunner.Function
	for _, wf := range r.wfs {
		fns = append(fns, wf...)
	}
	base := snapshotBaselines(t, r.p, nodes, fns...)
	r.run(16).want(t, 16, 0)
	r.assertQuiet(t)
	assertBaselines(t, r.p, nodes, base, fns...)
}

// TestDeadlineShedsAsCancelled: an unmeetable per-execution deadline on
// the plan DAG sheds every execution as a context error, never as another
// failure, and never completes one.
func TestDeadlineShedsAsCancelled(t *testing.T) {
	r := newLoadRig(t, loadConfig{shape: shapePlan, workflows: 2, deadline: time.Nanosecond})
	r.run(6).want(t, 0, 6)
	r.assertQuiet(t)
}

// TestDeadlineGenerousCompletesAll: concurrent mixed workflows, each
// execution under an hour-long deadline, complete as if unbounded.
func TestDeadlineGenerousCompletesAll(t *testing.T) {
	r := newLoadRig(t, loadConfig{shape: shapeMixed, workflows: 2, deadline: time.Hour})
	r.run(6).want(t, 6, 0)
	r.assertQuiet(t)
}
