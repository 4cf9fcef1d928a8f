package main

import (
	"context"
	"fmt"
	"runtime"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// Loop kinds. A closed loop sends a client's next op only after the previous
// one completes; the open loop sends on a seeded schedule regardless.
const (
	loopClosed = "closed"
	loopOpen   = "open"
)

// Transfer mechanisms on an op's blocking path, for shaping the layer probes.
// They are the Mode strings the transfer reports carry.
const (
	hopKernel  = "kernel"
	hopNetwork = "network"
	hopMcast   = "kernel-multicast"
)

// openRate is plan_open_64k's offered load in ops/s: about 28 % of the
// closed-loop capacity measured on the 2-core sizing box, so the round sees
// queueing and wake-up wait without a growing backlog.
const openRate = 1000

// workload is one set of inputs the benchmark runs: a deployment, the op
// driven against it, and the loop that issues the op.
type workload struct {
	name string
	// why is the one-sentence reason the workload exists (BENCHMARK.json).
	why string
	// unlisted keeps the workload out of BENCHMARK.json. It runs, prints and
	// is compared by -check like the others; but the build driver holds the
	// same-code spread of every listed workload under that file's bounds
	// (0.25 at most), and README.md ("Same-code spread") shows this one's
	// op_p50_us reaching them on the box this was built on.
	unlisted bool
	loop     string
	// payload is P, the bytes of every delivery.
	payload int
	// deliveries is how many regions one op delivers.
	deliveries int
	// produces reports whether the op runs guest produce (P bytes) itself.
	produces bool
	// hops lists the mechanisms on the op's blocking path, in order: the
	// budget table sums the direct core transfer of each.
	hops []string
	// fan is the degree of a multicast hop (1 otherwise).
	fan int
	// verifyEvery is the sampling period of in-loop verification: one op in
	// verifyEvery, picked by the seed, has every delivery checksummed. The
	// guest checksums at interpreter speed (~190 MB/s), so the period grows
	// with the bytes an op delivers to keep checking near a tenth of a
	// round's wall time.
	verifyEvery int
	// rate is the open loop's offered ops/s (0 for closed loops).
	rate float64
	// clients maps the CPU count to the number of client goroutines.
	clients func(nproc int) int
	// deploy builds the platform and one client per client goroutine.
	deploy func(w *workload, clients int) (*rig, error)
}

func oneClient(int) int     { return 1 }
func planClients(n int) int { return min(n, 4) }
func allCPUs(n int) int     { return n }

// workloads is the benchmark's fixed workload set, in run order.
var workloads = []*workload{
	{
		name: "xfer_kernel_4k", loop: loopClosed, payload: 4 << 10, deliveries: 1,
		hops: []string{hopKernel}, fan: 1, verifyEvery: 64, clients: oneClient, deploy: deployPair("edge", "edge"), unlisted: true,
		why: "Per-op fixed cost with bytes negligible: core stage hand-off and pair lock, warm channel hit, abi/wasm guest calls; the byte movers do almost nothing.",
	},
	{
		name: "xfer_kernel_4m", loop: loopClosed, payload: 4 << 20, deliveries: 1,
		hops: []string{hopKernel}, fan: 1, verifyEvery: 256, clients: oneClient, deploy: deployPair("edge", "edge"),
		why: "The copy path: two kernel copies through kernel.Write/Read and pooled pagebuf pages; fixed costs vanish.",
	},
	{
		name: "xfer_network_16m", loop: loopClosed, payload: 16 << 20, deliveries: 1,
		hops: []string{hopNetwork}, fan: 1, verifyEvery: 512, clients: oneClient, deploy: deployPair("edge", "cloud"),
		why: "The zero-copy path of Algorithm 1 (vmsplice/splice hose, gifted pages, one copy into the target VM) and the chunk pipeline's two overlapping stages.",
	},
	{
		name: "mcast_8x1m", loop: loopClosed, payload: 1 << 20, deliveries: 8,
		hops: []string{hopMcast}, fan: 8, verifyEvery: 512, clients: oneClient, deploy: deployMulticast,
		why: "Shared-egress tee group: one vmsplice, 7 kernel.Tee ref clones, 8 parallel ingress copies; the slowest of 8 parts sets the latency; sched is bypassed.",
	},
	{
		name: "plan_closed_64k", loop: loopClosed, payload: 64 << 10, deliveries: 3, produces: true,
		hops: []string{hopKernel, hopNetwork}, fan: 1, verifyEvery: 16, clients: planClients, deploy: deployPlan, unlisted: true,
		why: "A whole invocation: guest produce, all three modes, node bodies as sched tasks, invoke placement over replica pools, Plan/Job bookkeeping; concurrent workflows give engine capacity.",
	},
	{
		name: "plan_open_64k", loop: loopOpen, payload: 64 << 10, deliveries: 3, produces: true,
		hops: []string{hopKernel, hopNetwork}, fan: 1, verifyEvery: 16, rate: openRate, clients: allCPUs, deploy: deployPlan, unlisted: true,
		why: "Independent callers at a fixed 1000 ops/s: latency from due time includes the queue and wake-up wait the closed loop hides.",
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// region is one allocation an op left in a guest's linear memory.
type region struct {
	inst *roadrunner.Instance
	ref  roadrunner.DataRef
}

// client is one client goroutine's share of a deployment. Its buffers are
// reused across ops so the harness adds no allocation to the op it measures.
type client struct {
	// op runs the workload's public calls once, filling delivered, held and
	// reports. It is the interval op_p50_us times.
	op func(ctx context.Context, c *client) error
	// delivered lists the op's deliveries (what verification checksums).
	delivered []region
	// held lists every region the op allocated, deliveries included, in
	// release order.
	held []region
	// reports holds the transfer report of each delivery.
	reports []roadrunner.Report
}

// expected returns the digest every delivery of the workload must have.
// The oracle regenerates the payload on the host, so callers compute it once
// per deployment, during set-up.
func (w *workload) expected() uint64 { return roadrunner.ExpectedChecksum(w.payload) }

// releaseAll returns every region of the last op to its guest allocator —
// head produce, interior and final deliveries — so linear memory stays flat
// across ops. It reports the first failure.
func (c *client) releaseAll() error {
	var first error
	for _, r := range c.held {
		if err := r.inst.Release(r.ref); err != nil && first == nil {
			first = fmt.Errorf("release %s: %w", r.inst.Name(), err)
		}
	}
	c.held = c.held[:0]
	return first
}

// verify checksums every delivery of the last op against want, the produce
// oracle's digest of the workload's payload.
func (c *client) verify(want uint64) error {
	for _, r := range c.delivered {
		sum, err := r.inst.Checksum(r.ref)
		if err != nil {
			return fmt.Errorf("checksum %s: %w", r.inst.Name(), err)
		}
		if sum != want {
			return fmt.Errorf("checksum mismatch at %s: got %#x want %#x", r.inst.Name(), sum, want)
		}
	}
	return nil
}

func (c *client) reset() {
	c.delivered = c.delivered[:0]
	c.held = c.held[:0]
	c.reports = c.reports[:0]
}

// rig is one deployed workload.
type rig struct {
	platform *roadrunner.Platform
	clients  []*client
	// want is the digest every delivery must have (workload.expected).
	want uint64
	// accounted lists the functions whose sandbox accounts the counters
	// sum: every function that owns its shims. Functions deployed into
	// another's VM report their host's account and are left out, so no
	// account is counted twice.
	accounted []*roadrunner.Function
}

func (r *rig) close() { r.platform.Close() }

// usage sums the accounted functions' account totals. Residency is summed
// too (one level per function), which is what the flat-memory guard compares.
func (r *rig) usage() roadrunner.Usage {
	var sum roadrunner.Usage
	for _, f := range r.accounted {
		u := f.Report().Total
		sum.UserCopyBytes += u.UserCopyBytes
		sum.KernelCopyBytes += u.KernelCopyBytes
		sum.Syscalls += u.Syscalls
		sum.ContextSwitches += u.ContextSwitches
		sum.UserCPU += u.UserCPU
		sum.KernelCPU += u.KernelCPU
		sum.PeakResident += u.PeakResident
	}
	return sum
}

// deployPair builds the xfer_* deployment: a and b in separate sandboxes on
// the given nodes, a's payload produced once; op = Transfer(a, b).
func deployPair(srcNode, dstNode string) func(w *workload, clients int) (*rig, error) {
	return func(w *workload, clients int) (*rig, error) {
		p := roadrunner.New(roadrunner.WithNodes(srcNode, dstNode))
		r := &rig{platform: p}
		a, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: srcNode})
		if err != nil {
			return nil, closeOnErr(p, err)
		}
		b, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: dstNode})
		if err != nil {
			return nil, closeOnErr(p, err)
		}
		if err := a.Produce(w.payload); err != nil {
			return nil, closeOnErr(p, err)
		}
		r.accounted = []*roadrunner.Function{a, b}
		target := b.Instance(0)
		for i := 0; i < clients; i++ {
			r.clients = append(r.clients, &client{op: func(ctx context.Context, c *client) error {
				c.reset()
				ref, rep, err := p.TransferCtx(ctx, a, b)
				if err != nil {
					return err
				}
				c.delivered = append(c.delivered, region{target, ref})
				c.held = append(c.held, region{target, ref})
				c.reports = append(c.reports, rep)
				return nil
			}})
		}
		return r, nil
	}
}

// deployMulticast builds mcast_8x1m: src plus w.fan target sandboxes on one
// node, src's payload produced once; op = Multicast(src, targets).
func deployMulticast(w *workload, clients int) (*rig, error) {
	p := roadrunner.New(roadrunner.WithNodes("edge"))
	r := &rig{platform: p}
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	if err != nil {
		return nil, closeOnErr(p, err)
	}
	r.accounted = append(r.accounted, src)
	targets := make([]*roadrunner.Function, w.fan)
	for i := range targets {
		targets[i], err = p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("t%d", i), Node: "edge"})
		if err != nil {
			return nil, closeOnErr(p, err)
		}
		r.accounted = append(r.accounted, targets[i])
	}
	if err := src.Produce(w.payload); err != nil {
		return nil, closeOnErr(p, err)
	}
	for i := 0; i < clients; i++ {
		r.clients = append(r.clients, &client{op: func(ctx context.Context, c *client) error {
			c.reset()
			refs, reps, err := p.MulticastCtx(ctx, src, targets)
			if err != nil {
				return err
			}
			for t, ref := range refs {
				reg := region{targets[t].Instance(0), ref}
				c.delivered = append(c.delivered, reg)
				c.held = append(c.held, reg)
			}
			c.reports = append(c.reports, reps...)
			return nil
		}})
	}
	return r, nil
}

// deployPlan builds the plan_* deployment: three nodes and, per client, one
// workflow of four functions — a and b with two replicas over edge and
// cloud, c on far, d inside b's VMs — so the DAG's three hops land kernel
// (invoke a→b on one node), network (b→c) and user space (b→d).
func deployPlan(w *workload, clients int) (*rig, error) {
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud", "far"))
	r := &rig{platform: p}
	spread := []string{"edge", "cloud"}
	for i := 0; i < clients; i++ {
		wf := roadrunner.Workflow{Name: fmt.Sprintf("wf-%d", i), Tenant: "bench"}
		name := func(s string) string { return fmt.Sprintf("%s-%d", s, i) }
		a, err := p.Deploy(roadrunner.FunctionSpec{Name: name("a"), Node: "edge", Replicas: 2, Nodes: spread, Workflow: wf})
		if err != nil {
			return nil, closeOnErr(p, err)
		}
		b, err := p.Deploy(roadrunner.FunctionSpec{Name: name("b"), Node: "edge", Replicas: 2, Nodes: spread, Workflow: wf})
		if err != nil {
			return nil, closeOnErr(p, err)
		}
		c, err := p.Deploy(roadrunner.FunctionSpec{Name: name("c"), Node: "far", Workflow: wf})
		if err != nil {
			return nil, closeOnErr(p, err)
		}
		d, err := p.Deploy(roadrunner.FunctionSpec{Name: name("d"), Replicas: 2, Workflow: wf, ShareVMWith: b})
		if err != nil {
			return nil, closeOnErr(p, err)
		}
		r.accounted = append(r.accounted, a, b, c)
		r.clients = append(r.clients, &client{op: planOp(p, w.payload, a, b, c, d)})
	}
	return r, nil
}

// planOp is the plan_* op: build the DAG, Submit, Wait. The regions are
// recorded leaves first, then the shared input, then the invoke's produce,
// so each bump allocator rewinds exactly on release.
func planOp(p *roadrunner.Platform, payload int, a, b, c, d *roadrunner.Function) func(context.Context, *client) error {
	return func(ctx context.Context, cl *client) error {
		cl.reset()
		pl := roadrunner.NewPlan()
		inv := pl.Invoke(a, b, payload)
		toC := pl.Xfer(b, c).From(inv)
		toD := pl.Xfer(b, d).From(inv)
		job, err := p.Submit(ctx, pl)
		if err != nil {
			return err
		}
		res, err := job.Wait(ctx)
		if err != nil {
			return err
		}
		for _, leaf := range []struct {
			node *roadrunner.PlanNode
			fn   *roadrunner.Function
		}{{toC, c}, {toD, d}} {
			if nr := res.Node(leaf.node); nr.Err == nil {
				reg := region{leaf.fn.ActiveInstance(), nr.Ref()}
				cl.delivered = append(cl.delivered, reg)
				cl.held = append(cl.held, reg)
				cl.reports = append(cl.reports, nr.Report())
			}
		}
		if nr := res.Node(inv); nr.Err == nil && nr.Invocation != nil {
			reg := region{nr.Invocation.Target, nr.Ref()}
			cl.delivered = append(cl.delivered, reg)
			cl.held = append(cl.held, reg)
			cl.reports = append(cl.reports, nr.Report())
			if out, err := nr.Invocation.Source.Output(); err == nil {
				cl.held = append(cl.held, region{nr.Invocation.Source, out})
			}
		}
		return res.Err
	}
}

func closeOnErr(p *roadrunner.Platform, err error) error {
	p.Close()
	return err
}

// clientCount is the number of client goroutines a workload runs with on
// this machine.
func clientCount(w *workload) int { return w.clients(runtime.NumCPU()) }
