// Plan execution: Platform.Submit runs a validated Plan's DAG through the
// invoke-routing engine and the bounded worker pool under one
// context.Context, handing back a Job. Each node body executes as a pool
// task (Fan nodes orchestrate their own deliveries through the pool, so
// their coordinating body runs on the node's goroutine to keep the pool
// free for the deliveries themselves); dependencies gate on the
// predecessors' completion, a failed or skipped dependency skips its
// dependents, and cancellation reaches every layer — queue admission, hop
// scheduling, and the pipeline's stage boundaries.
package roadrunner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/core"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/sched"
)

// NodeResult is one plan node's outcome.
type NodeResult struct {
	// Node is the node's label.
	Node string
	// Refs locates every delivery the node made: one entry for Xfer, Hop
	// (the final delivery) and Invoke, one per target for Cast and Fan.
	Refs []DataRef
	// Reports carries the transfer reports, aligned with Refs (a Hop
	// node's single report is the merged per-hop report).
	Reports []Report
	// Invocation is the concrete routed outcome of an Invoke node (nil for
	// every other kind).
	Invocation *Invocation
	// Err is the node's failure: the engine's error for an executed node,
	// the dependency's error (wrapped) for a skipped node, or the
	// context's error when cancellation preempted the node.
	Err error
	// delivered is the concrete instance a single-delivery node landed on,
	// feeding downstream From edges.
	delivered *Instance
}

// Ref returns the node's first delivery (the only one for single-delivery
// nodes), or the zero DataRef for a failed node.
func (nr NodeResult) Ref() DataRef {
	if len(nr.Refs) == 0 {
		return DataRef{}
	}
	return nr.Refs[0]
}

// Report returns the node's first report (the only one for single-delivery
// nodes), or the zero Report for a failed node.
func (nr NodeResult) Report() Report {
	if len(nr.Reports) == 0 {
		return Report{}
	}
	return nr.Reports[0]
}

// Result is a submitted plan's aggregate outcome: one NodeResult per node
// (in plan order) plus the merged report of every successful delivery.
type Result struct {
	plan *Plan
	// Nodes holds every node's outcome, indexed like Plan.Nodes().
	Nodes []NodeResult
	// Report merges the reports of every successful node, Mode "plan".
	Report Report
	// Err is the first failing node's error in plan order (nil when every
	// node succeeded).
	Err error
}

// Node returns the outcome of one of the submitted plan's nodes.
func (r *Result) Node(n *PlanNode) NodeResult {
	if n == nil || n.plan != r.plan || n.id >= len(r.Nodes) {
		return NodeResult{Err: errors.New("roadrunner: node does not belong to the submitted plan")}
	}
	return r.Nodes[n.id]
}

// assemble folds per-node outcomes into the aggregate result.
func assemble(pl *Plan, nodes []NodeResult) *Result {
	res := &Result{plan: pl, Nodes: nodes, Report: Report{Mode: "plan"}}
	for i := range nodes {
		if nodes[i].Err != nil {
			if res.Err == nil {
				res.Err = nodes[i].Err
			}
			continue
		}
		for _, rep := range nodes[i].Reports {
			res.Report = res.Report.Merge(rep)
		}
	}
	return res
}

// Job is the handle of a submitted plan: a select-friendly completion
// channel, a context-bounded Wait, and per-node progress.
type Job struct {
	plan      *Plan
	nodes     []jobNode
	completed atomic.Int64
	done      chan struct{}
	result    *Result // set before done closes
}

type jobNode struct {
	done chan struct{}
	res  *NodeResult // set before done closes
}

func newJob(pl *Plan) *Job {
	j := &Job{plan: pl, nodes: make([]jobNode, len(pl.nodes)), done: make(chan struct{})}
	for i := range j.nodes {
		j.nodes[i] = jobNode{done: make(chan struct{}), res: new(NodeResult)}
	}
	return j
}

// Done returns a channel closed when every node has completed.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job completes or ctx is done, whichever comes
// first. A ctx error abandons the wait only — the job keeps executing (the
// submission ctx, not the wait ctx, is what cancels the work) and a later
// Wait can still collect it. Node failures are reported through the
// Result, not through Wait's error.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
		return j.result, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Progress reports how many of the plan's nodes have completed (in any
// state: succeeded, failed or skipped).
func (j *Job) Progress() (completed, total int) {
	return int(j.completed.Load()), len(j.nodes)
}

// NodeDone returns a channel closed when one node completes — the per-node
// progress hook: a plan of one Xfer node per target is the asynchronous
// fan-out, each target's delivery collected off its own channel with
// NodeResult. A node from a different plan yields a closed channel.
func (j *Job) NodeDone(n *PlanNode) <-chan struct{} {
	if n == nil || n.plan != j.plan || n.id >= len(j.nodes) {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return j.nodes[n.id].done
}

// NodeResult returns a node's outcome once it has completed (ok reports
// whether it has; watch NodeDone to block).
func (j *Job) NodeResult(n *PlanNode) (NodeResult, bool) {
	if n == nil || n.plan != j.plan || n.id >= len(j.nodes) {
		return NodeResult{}, false
	}
	select {
	case <-j.nodes[n.id].done:
		return *j.nodes[n.id].res, true
	default:
		return NodeResult{}, false
	}
}

// Submit executes a plan as a DAG job: the plan is validated up front
// (typed *PlanError), every root node is dispatched immediately and each
// dependent node as its dependencies land, node bodies running as worker
// pool tasks. ctx cancels the whole job — admission, hop scheduling and the
// transfer pipelines all observe it — and Submit after Close returns
// ErrClosed. The returned Job resolves even on cancellation or teardown:
// every node completes (possibly with an error) and Wait hands back the
// assembled Result.
func (p *Platform) Submit(ctx context.Context, plan *Plan) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, err := plan.validate(p); err != nil {
		return nil, err
	}
	p.mu.RLock()
	closed := p.closed
	p.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	pool := p.scheduler()
	if pool == nil {
		return nil, ErrClosed
	}
	job := newJob(plan)
	// Root nodes (no dependencies) dispatch straight onto the pool from
	// here — no orchestration goroutines, so a single-node plan costs
	// exactly one pool task over the one-shot ...Ctx call. Submission
	// applies the pool's usual backpressure. Dependent nodes (and Fan
	// bodies, which coordinate their own deliveries through the pool and
	// must not occupy a worker) each get a goroutine to wait their
	// dependencies out.
	for i := range plan.nodes {
		n := plan.nodes[i]
		if len(n.deps) == 0 && n.op != opFan {
			if err := pool.SubmitCtx(ctx, func() {
				slot := &job.nodes[n.id]
				*slot.res = p.execNode(ctx, n, nil)
				job.publish(n.id)
			}); err != nil {
				if errors.Is(err, sched.ErrClosed) {
					err = ErrClosed
				}
				*job.nodes[n.id].res = NodeResult{Node: n.label, Err: err}
				job.publish(n.id)
			}
			continue
		}
		go job.runNode(ctx, p, pool, n)
	}
	return job, nil
}

// publish marks one node complete; the last completion assembles the
// aggregate Result and resolves the job (the atomic counter's
// happens-before edge makes every node's published result visible to the
// assembling goroutine).
func (j *Job) publish(id int) {
	close(j.nodes[id].done)
	if j.completed.Add(1) == int64(len(j.nodes)) {
		nodes := make([]NodeResult, len(j.nodes))
		for i := range j.nodes {
			nodes[i] = *j.nodes[i].res
		}
		j.result = assemble(j.plan, nodes)
		close(j.done)
	}
}

// runNode waits the node's dependencies out, executes its body, and
// publishes the outcome.
func (j *Job) runNode(ctx context.Context, p *Platform, pool *sched.Pool, n *PlanNode) {
	slot := &j.nodes[n.id]
	defer j.publish(n.id)
	for _, dep := range n.deps {
		select {
		case <-j.nodes[dep.id].done:
			if err := j.nodes[dep.id].res.Err; err != nil {
				*slot.res = NodeResult{Node: n.label, Err: fmt.Errorf("dependency %s: %w", dep.label, err)}
				return
			}
		case <-ctx.Done():
			*slot.res = NodeResult{Node: n.label, Err: ctx.Err()}
			return
		}
	}
	var input *NodeResult
	if n.input != nil {
		input = j.nodes[n.input.id].res // complete: From implies After
	}
	if n.op == opFan {
		// The fan body coordinates its own deliveries through the pool;
		// running it on a worker could deadlock a one-worker pool against
		// its own deliveries, so it runs here and only the deliveries
		// occupy workers.
		*slot.res = p.execNode(ctx, n, input)
		return
	}
	ran := make(chan struct{})
	if err := pool.SubmitCtx(ctx, func() {
		*slot.res = p.execNode(ctx, n, input)
		close(ran)
	}); err != nil {
		if errors.Is(err, sched.ErrClosed) {
			err = ErrClosed
		}
		*slot.res = NodeResult{Node: n.label, Err: err}
		return
	}
	<-ran
}

// execNode runs one node's body through the engine, translating the op kind
// to the corresponding internal ctx-taking entry point. input is the
// completed dependency a From edge wired in (nil without one): its delivery
// is pinned as the node's source region and source instance, ahead of the
// node's own options so explicit pins still win.
func (p *Platform) execNode(ctx context.Context, n *PlanNode, input *NodeResult) NodeResult {
	res := NodeResult{Node: n.label}
	opts := n.opts
	if input != nil && input.delivered != nil {
		wired := []TransferOption{
			WithSourceInstance(input.delivered),
			WithSourceRef(input.Ref()),
		}
		opts = append(wired, opts...)
	}
	switch n.op {
	case opXfer:
		ref, rep, inst, err := p.transferCtx(ctx, n.src, n.dst, opts)
		if err != nil {
			res.Err = err
			return res
		}
		res.Refs, res.Reports, res.delivered = []DataRef{ref}, []Report{rep}, inst
	case opHop:
		ref, rep, inst, err := p.chainWithCtx(ctx, n.bytes, opts, n.fns...)
		if err != nil {
			res.Err = err
			return res
		}
		res.Refs, res.Reports, res.delivered = []DataRef{ref}, []Report{rep}, inst
	case opCast:
		refs, reps, err := p.multicastCtx(ctx, n.src, n.targets, opts)
		if err != nil {
			res.Err = err
			return res
		}
		res.Refs, res.Reports = refs, reps
	case opFan:
		refs, reps, err := p.fanoutCtx(ctx, n.src, n.targets, n.bytes, opts)
		if err != nil {
			res.Err = err
			return res
		}
		res.Refs, res.Reports = refs, reps
	case opInvoke:
		inv, err := p.invokeCtx(ctx, n.src, n.dst, n.bytes, opts)
		if err != nil {
			res.Err = err
			return res
		}
		res.Invocation = inv
		res.Refs, res.Reports = []DataRef{inv.Ref}, []Report{inv.Report}
		res.delivered = inv.Target
	default:
		res.Err = fmt.Errorf("roadrunner: unknown plan op %v", n.op)
	}
	return res
}

// ctxErr reports a context's cancellation non-blockingly; nil means never
// cancelled (one implementation, shared with the data plane).
func ctxErr(ctx context.Context) error { return core.CtxErr(ctx) }
