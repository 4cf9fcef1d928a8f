// Package workload is the load harness for the concurrent transfer engine:
// an open/closed-loop generator that deploys N independent workflow
// instances on one simulated platform, drives their multi-hop transfers
// through the bounded scheduler, and reports aggregate throughput and
// latency percentiles as JSON (the BENCH-comparable format the CI smoke run
// diffs across PRs).
//
// Closed loop: a fixed number of in-flight executions (one per busy worker)
// runs until Requests workflow executions complete — the regime that
// measures engine capacity. Open loop: executions arrive at a fixed rate
// for a fixed duration regardless of completion — the regime that measures
// latency under offered load, including scheduler queueing.
package workload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/sched"
)

// SchemaVersion identifies the Result JSON layout. Version 2 added the
// "channels" field (warm/cold channel-cache regime); version 3 added the
// "pipeline" field (the data plane's execution regime) and the "chain"
// mode (chain-depth scaling over a line of functions); version 4 added the
// "replicas" and "placement" fields (replicated instance pools routed by
// the invoker plane's placement policy); version 5 added the "deadline_ns"
// field and "cancelled" counter (per-operation context timeouts) and the
// "plan" mode (a small Plan/Submit DAG per iteration); version 6 added the
// "kills" field (replicas crashed mid-load per pool, served by
// health-aware retry-with-exclusion routing); version 7 added the "fanout"
// field (deliveries per execution) and the "fanout" mode (one shared-egress
// same-node fan-out per iteration, one produce serving Targets sandboxes);
// version 8 removed the "pipeline" field (the data plane has one regime).
const SchemaVersion = 8

// Modes the generator can drive. Mixed chains one hop of each mechanism;
// chain runs a Hops-deep line of functions alternating kernel and network
// hops (the chain-depth scaling scenario for the staged pipeline); plan
// submits a small DAG per iteration through the Plan/Submit plane (an
// invoke feeding two parallel transfers); fanout delivers one produce to
// Targets same-node sandboxes per iteration through the shared-egress tee
// group (one hop, Targets deliveries).
const (
	ModeMixed   = "mixed"
	ModeUser    = "user"
	ModeKernel  = "kernel"
	ModeNetwork = "network"
	ModeChain   = "chain"
	ModePlan    = "plan"
	ModeFanout  = "fanout"
)

// Config parameterizes one load run.
type Config struct {
	// Workflows is the number of independent workflow instances (each with
	// its own functions, shims and VMs). Default 8.
	Workflows int
	// Hops is the number of transfers per workflow execution. Default: 3
	// for mixed (one hop per mechanism), 2 otherwise.
	Hops int
	// PayloadBytes is the payload produced at the head of every execution.
	// Default 64 KiB.
	PayloadBytes int
	// Concurrency bounds simultaneously executing workflows. Default:
	// min(Workflows, GOMAXPROCS).
	Concurrency int
	// Requests is the closed-loop total number of workflow executions.
	// Default 4×Workflows. Ignored when RatePerSec > 0.
	Requests int
	// RatePerSec switches to the open loop: executions arrive at this rate
	// for Duration, queueing when the engine falls behind.
	RatePerSec float64
	// Duration is the open-loop offered-load window. Default 1s.
	Duration time.Duration
	// Mode selects the transfer mechanisms exercised (see Mode* constants).
	// Default mixed.
	Mode string
	// Verify checksums every final delivery against the produce oracle.
	Verify bool
	// ColdChannels disables the platform's channel cache so every transfer
	// pays per-call channel establishment and teardown — the cold regime,
	// for warm-vs-cold comparisons. Default false: after the first
	// execution per instance the harness measures steady-state reuse.
	ColdChannels bool
	// Replicas sizes every deployed function's warm instance pool
	// (default 1). Pools are spread across both nodes, so the placement
	// policy decides how much traffic stays on cheap same-node paths.
	Replicas int
	// Placement names the invoker plane's policy: "locality" (default),
	// "least-loaded" or "round-robin".
	Placement string
	// Deadline bounds every execution with a per-operation context timeout
	// (0 = none). Executions that trip it count in the result's "cancelled"
	// counter, not as errors — cancellation is load shedding, not failure.
	Deadline time.Duration
	// Targets is the fan-out degree of every ModeFanout execution: the
	// number of same-node target sandboxes one produce is delivered to
	// through the shared-egress tee group. Default 4; ignored outside
	// fanout mode.
	Targets int
	// Kills crashes this many replicas (the highest-indexed ones) in every
	// function pool two data-plane syscalls into the run — the
	// degrade-under-kill regime. The surviving replicas absorb the load
	// through health-aware retry-with-exclusion; expect a handful of failed
	// executions while the health FSM converges on the corpses (and an
	// occasional one per probe window thereafter). Requires
	// Kills < Replicas. Functions deployed into a shared VM share a
	// sandbox, so a kill there covers the co-located replicas too.
	Kills int
	// ProfileDir, when non-empty, writes cpu.pprof and heap.pprof into the
	// directory (created if missing), bracketing exactly the measured
	// window: the CPU profile covers the load loop but not deployment or
	// teardown, and the heap profile is taken right after the loop drains,
	// post-GC, so it shows what the steady state keeps live. This is the
	// evidence-first entry point for perf work — flamegraph before
	// optimizing (DESIGN.md §10).
	ProfileDir string
}

func (c Config) withDefaults() (Config, error) {
	if c.Workflows <= 0 {
		c.Workflows = 8
	}
	if c.Mode == "" {
		c.Mode = ModeMixed
	}
	switch c.Mode {
	case ModeMixed, ModeUser, ModeKernel, ModeNetwork, ModeChain:
	case ModePlan:
		c.Hops = 3 // the DAG's shape is fixed: invoke + two transfers
	case ModeFanout:
		c.Hops = 1 // one shared-egress pass per execution
		if c.Targets <= 0 {
			c.Targets = 4
		}
	default:
		return c, fmt.Errorf("workload: unknown mode %q", c.Mode)
	}
	if c.Mode != ModeFanout && c.Targets > 0 {
		return c, fmt.Errorf("workload: -targets only applies to fanout mode, got mode %q", c.Mode)
	}
	if c.Hops <= 0 {
		switch c.Mode {
		case ModeMixed, ModeChain:
			c.Hops = 3
		default:
			c.Hops = 2
		}
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 64 << 10
	}
	if c.Concurrency <= 0 {
		c.Concurrency = min(c.Workflows, runtime.GOMAXPROCS(0))
	}
	if c.Requests <= 0 {
		c.Requests = 4 * c.Workflows
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Placement == "" {
		c.Placement = roadrunner.PlacementLocality.String()
	}
	if _, err := roadrunner.ParsePlacement(c.Placement); err != nil {
		return c, fmt.Errorf("workload: %w", err)
	}
	if c.Kills < 0 || (c.Kills > 0 && c.Kills >= c.Replicas) {
		return c, fmt.Errorf("workload: kills=%d must leave at least one of %d replicas alive", c.Kills, c.Replicas)
	}
	return c, nil
}

// Percentiles summarizes a latency distribution in nanoseconds.
type Percentiles struct {
	P50 int64 `json:"p50_ns"`
	P90 int64 `json:"p90_ns"`
	P99 int64 `json:"p99_ns"`
	Max int64 `json:"max_ns"`
}

func percentiles(durs []time.Duration) Percentiles {
	if len(durs) == 0 {
		return Percentiles{}
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	// Ceil nearest-rank: the q-quantile is the smallest sample with at
	// least a q fraction of the distribution at or below it. Truncating the
	// rank instead (the previous int(q*(n-1))) rounds the rank down and
	// systematically under-reports tail latency.
	at := func(q float64) int64 {
		i := int(math.Ceil(q*float64(len(durs)))) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(durs) {
			i = len(durs) - 1
		}
		return int64(durs[i])
	}
	return Percentiles{
		P50: at(0.50),
		P90: at(0.90),
		P99: at(0.99),
		Max: int64(durs[len(durs)-1]),
	}
}

// Result is the aggregate outcome of one load run.
type Result struct {
	SchemaVersion int    `json:"schema_version"`
	Loop          string `json:"loop"` // "closed" or "open"
	Mode          string `json:"mode"`
	Channels      string `json:"channels"` // "warm" (cached hoses) or "cold" (per-call)
	Workflows     int    `json:"workflows"`
	Hops          int    `json:"hops"`
	PayloadBytes  int    `json:"payload_bytes"`
	Concurrency   int    `json:"concurrency"`
	Replicas      int    `json:"replicas"`    // instance-pool size per function
	Placement     string `json:"placement"`   // invoker-plane routing policy
	DeadlineNS    int64  `json:"deadline_ns"` // per-operation ctx timeout (0 = none)
	Kills         int    `json:"kills"`       // replicas crashed mid-load per pool
	Fanout        int    `json:"fanout"`      // deliveries per execution (fanout mode; 0 otherwise)

	Ops       int64   `json:"ops"`       // completed workflow executions
	Errors    int64   `json:"errors"`    // failed executions
	Cancelled int64   `json:"cancelled"` // executions shed by the ctx deadline
	Bytes     int64   `json:"bytes"`     // payload bytes delivered (all hops)
	ElapsedNS int64   `json:"elapsed_ns"`
	OpsPerSec float64 `json:"ops_per_sec"`
	MBPerSec  float64 `json:"mb_per_sec"`

	// Latency is per-execution wall time. In the open loop it is the
	// sojourn time (arrival to completion, queueing included); ServiceOnly
	// then isolates the execution itself.
	Latency     Percentiles  `json:"latency"`
	ServiceOnly *Percentiles `json:"service_only,omitempty"`

	// Transfers is the delivery count: Ops × Hops when error-free, or
	// Ops × Fanout in fanout mode (one hop, Fanout deliveries).
	Transfers int64 `json:"transfers"`
}

// instance is one deployed workflow: a ring of functions the execution
// cycles through. Its mutex serializes executions of this instance (a
// workflow processes one request at a time); different instances share
// nothing above the platform.
type instance struct {
	mu  sync.Mutex
	fns []*roadrunner.Function
}

// Runner is a deployed load-generation environment, reusable across runs.
type Runner struct {
	cfg       Config
	platform  *roadrunner.Platform
	instances []*instance
	topts     []roadrunner.TransferOption
}

// NewRunner deploys cfg.Workflows independent workflow instances on a fresh
// two-node platform.
func NewRunner(cfg Config) (*Runner, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// Concurrency is enforced by the harness's own sched pools (runClosed/
	// runOpen), not the platform's async pool — executions call the
	// synchronous Transfer directly.
	place, _ := roadrunner.ParsePlacement(cfg.Placement) // validated in withDefaults
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"), roadrunner.WithPlacement(place))
	r := &Runner{cfg: cfg, platform: p}
	if cfg.ColdChannels {
		r.topts = append(r.topts, roadrunner.WithChannelCache(false))
	}
	for i := 0; i < cfg.Workflows; i++ {
		inst, err := deployInstance(p, cfg.Mode, cfg.Hops, cfg.Replicas, cfg.Targets, i)
		if err != nil {
			p.Close()
			return nil, err
		}
		r.instances = append(r.instances, inst)
	}
	// The degrade-under-kill regime: crash the highest-indexed replicas of
	// every pool two data-plane syscalls in, so each dies partway through
	// its first delivery of the run rather than before the load starts.
	for k := 0; k < cfg.Kills; k++ {
		for _, inst := range r.instances {
			for _, fn := range inst.fns {
				fn.Instance(cfg.Replicas - 1 - k).CrashAfter(2)
			}
		}
	}
	return r, nil
}

// Close tears down the platform.
func (r *Runner) Close() { r.platform.Close() }

// Platform exposes the underlying deployment (for tests).
func (r *Runner) Platform() *roadrunner.Platform { return r.platform }

func deployInstance(p *roadrunner.Platform, mode string, hops, replicas, targets, i int) (*instance, error) {
	wf := roadrunner.Workflow{Name: fmt.Sprintf("wf-%d", i), Tenant: "load"}
	deploy := func(name, node string, share *roadrunner.Function) (*roadrunner.Function, error) {
		// Replicated pools spread across both nodes starting at the
		// function's primary placement, so locality-aware routing can keep
		// hops on same-node (or same-VM) instance pairs while oblivious
		// policies pay the inter-node link.
		nodes := []string{node}
		if replicas > 1 && share == nil {
			other := "cloud"
			if node == "cloud" {
				other = "edge"
			}
			nodes = []string{node, other}
		}
		return p.Deploy(roadrunner.FunctionSpec{
			Name:        fmt.Sprintf("%s-%d", name, i),
			Node:        node,
			Replicas:    replicas,
			Nodes:       nodes,
			Workflow:    wf,
			ShareVMWith: share,
		})
	}
	a, err := deploy("a", "edge", nil)
	if err != nil {
		return nil, err
	}
	fns := []*roadrunner.Function{a}
	switch mode {
	case ModeUser:
		b, err := deploy("b", "edge", a)
		if err != nil {
			return nil, err
		}
		fns = append(fns, b)
	case ModeKernel:
		b, err := deploy("b", "edge", nil)
		if err != nil {
			return nil, err
		}
		fns = append(fns, b)
	case ModeNetwork:
		b, err := deploy("b", "cloud", nil)
		if err != nil {
			return nil, err
		}
		fns = append(fns, b)
	case ModeMixed:
		b, err := deploy("b", "edge", a) // user-space hop
		if err != nil {
			return nil, err
		}
		c, err := deploy("c", "edge", nil) // kernel-space hop
		if err != nil {
			return nil, err
		}
		d, err := deploy("d", "cloud", nil) // network hop
		if err != nil {
			return nil, err
		}
		fns = append(fns, b, c, d)
	case ModePlan:
		// The DAG's four corners: b co-located with a (kernel edge for the
		// invoke), c and d across the link (network edges for the parallel
		// transfers).
		b, err := deploy("b", "edge", nil)
		if err != nil {
			return nil, err
		}
		c, err := deploy("c", "cloud", nil)
		if err != nil {
			return nil, err
		}
		d, err := deploy("d", "cloud", nil)
		if err != nil {
			return nil, err
		}
		fns = append(fns, b, c, d)
	case ModeFanout:
		// The shared-egress scenario: Targets dedicated sandboxes co-located
		// with the head, all served by one tee group per execution.
		for t := 0; t < targets; t++ {
			f, err := deploy(fmt.Sprintf("t%d", t), "edge", nil)
			if err != nil {
				return nil, err
			}
			fns = append(fns, f)
		}
	case ModeChain:
		// A hops-deep line of dedicated shims placed edge,edge,cloud,cloud,
		// edge,… so the chain alternates kernel-space and network hops —
		// the chain-depth scaling scenario for the staged pipeline.
		for h := 1; h <= hops; h++ {
			node := "edge"
			if h%4 == 2 || h%4 == 3 {
				node = "cloud"
			}
			f, err := deploy(fmt.Sprintf("n%d", h), node, nil)
			if err != nil {
				return nil, err
			}
			fns = append(fns, f)
		}
	}
	return &instance{fns: fns}, nil
}

// execute runs one workflow execution on the instance: produce at the head,
// then Hops transfers around the function ring, then release every region
// so linear memory stays flat across executions. With a Deadline configured
// every operation runs under a context timeout; tripping it returns the
// context error, which the recorder counts as cancelled rather than failed.
func (r *Runner) execute(inst *instance) error {
	ctx := context.Background()
	if r.cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.Deadline)
		defer cancel()
	}
	if r.cfg.Mode == ModePlan {
		return r.executePlan(ctx, inst)
	}
	if r.cfg.Mode == ModeFanout {
		return r.executeFanout(ctx, inst)
	}
	cfg := r.cfg
	fns := inst.fns
	head := fns[0]
	if err := head.Produce(cfg.PayloadBytes); err != nil {
		return fmt.Errorf("produce: %w", err)
	}
	// held is every region this execution allocated: the head's produce,
	// then one delivery per hop. Each goes back to the instance that owns
	// it, in any order.
	ref, err := head.ActiveInstance().Output()
	if err != nil {
		return fmt.Errorf("head output: %w", err)
	}
	held := []roadrunner.DataRef{ref}
	defer func() {
		for _, ref := range held {
			_ = ref.Instance().Release(ref)
		}
	}()

	for h := 0; h < cfg.Hops; h++ {
		src := fns[h%len(fns)]
		dst := fns[(h+1)%len(fns)]
		// Streaming hop: the input region is pinned atomically inside the
		// transfer's source stage (WithSourceRef) instead of a separate
		// SetOutput call, exactly as Platform.ChainCtx does; the ref's
		// owner — the previous hop's delivery — is the source instance.
		opts := append(append(make([]roadrunner.TransferOption, 0, len(r.topts)+1), r.topts...),
			roadrunner.WithSourceRef(ref))
		ref, _, err = r.platform.TransferCtx(ctx, src, dst, opts...)
		if err != nil {
			return fmt.Errorf("hop %d %s->%s: %w", h, src.Name(), dst.Name(), err)
		}
		held = append(held, ref)
	}
	if cfg.Verify {
		sum, err := ref.Instance().Checksum(ref)
		if err != nil {
			return fmt.Errorf("checksum: %w", err)
		}
		if want := roadrunner.ExpectedChecksum(cfg.PayloadBytes); sum != want {
			return fmt.Errorf("checksum mismatch: got %#x want %#x", sum, want)
		}
	}
	return nil
}

// executeFanout runs one fanout-mode iteration: FanoutCtx produces the
// payload at the head and delivers it to every target sandbox through the
// shared-egress tee group (all targets are co-located with the head, so
// the whole set rides one vmsplice+tee pass), then every landed region and
// the head's produce are released so linear memory stays flat.
func (r *Runner) executeFanout(ctx context.Context, inst *instance) error {
	cfg := r.cfg
	head, targets := inst.fns[0], inst.fns[1:]
	refs, _, err := r.platform.FanoutCtx(ctx, head, targets, cfg.PayloadBytes, r.topts...)
	if err != nil {
		return err
	}
	var verr error
	for t, ref := range refs {
		target := ref.Instance()
		if cfg.Verify && verr == nil {
			sum, err := target.Checksum(ref)
			switch {
			case err != nil:
				verr = fmt.Errorf("checksum target %d: %w", t, err)
			case sum != roadrunner.ExpectedChecksum(cfg.PayloadBytes):
				verr = fmt.Errorf("checksum mismatch at target %d: got %#x want %#x",
					t, sum, roadrunner.ExpectedChecksum(cfg.PayloadBytes))
			}
		}
		_ = target.Release(ref)
	}
	src := head.ActiveInstance()
	if out, err := src.Output(); err == nil {
		_ = src.Release(out)
	}
	return verr
}

// executePlan runs one plan-mode iteration: a Plan DAG — invoke a->b (the
// kernel edge), whose delivery feeds two parallel network transfers b->c
// and b->d (From dataflow edges) — submitted under ctx, then every region
// the DAG allocated released so linear memory stays flat.
func (r *Runner) executePlan(ctx context.Context, inst *instance) error {
	cfg := r.cfg
	a, b, c, d := inst.fns[0], inst.fns[1], inst.fns[2], inst.fns[3]

	pl := roadrunner.NewPlan()
	n1 := pl.Invoke(a, b, cfg.PayloadBytes, r.topts...)
	n2 := pl.Xfer(b, c, r.topts...).From(n1)
	n3 := pl.Xfer(b, d, r.topts...).From(n1)

	job, err := r.platform.Submit(ctx, pl)
	if err != nil {
		return err
	}
	// Wait unbounded: ctx cancels the work itself, after which the job
	// resolves promptly; abandoning the wait would release the instance
	// lock while nodes are still in flight.
	res, err := job.Wait(context.Background())
	if err != nil {
		return err
	}
	// Verify while the delivery is live, then release everything the DAG
	// allocated: the three deliveries and the invoke's produce.
	var verr error
	if cfg.Verify && res.Err == nil {
		toC := res.Node(n2).Ref()
		sum, err := toC.Instance().Checksum(toC)
		switch {
		case err != nil:
			verr = fmt.Errorf("checksum: %w", err)
		case sum != roadrunner.ExpectedChecksum(cfg.PayloadBytes):
			verr = fmt.Errorf("checksum mismatch: got %#x want %#x", sum, roadrunner.ExpectedChecksum(cfg.PayloadBytes))
		}
	}
	for _, leaf := range []*roadrunner.PlanNode{n2, n3, n1} {
		if nr := res.Node(leaf); nr.Err == nil {
			ref := nr.Ref()
			_ = ref.Instance().Release(ref)
		}
	}
	if inv := res.Node(n1).Invocation; inv != nil {
		if out, err := inv.Source.Output(); err == nil {
			_ = inv.Source.Release(out)
		}
	}
	if res.Err != nil {
		return res.Err
	}
	return verr
}

// Run executes the configured load and aggregates the result. The loop is
// open when RatePerSec > 0, closed otherwise. With ProfileDir set, the
// measured window is bracketed by pprof collection.
func (r *Runner) Run() (*Result, error) {
	stop, err := startProfiles(r.cfg.ProfileDir)
	if err != nil {
		return nil, err
	}
	var res *Result
	if r.cfg.RatePerSec > 0 {
		res, err = r.runOpen()
	} else {
		res, err = r.runClosed()
	}
	if perr := stop(); perr != nil && err == nil {
		return nil, perr
	}
	return res, err
}

// startProfiles begins CPU profiling into dir/cpu.pprof and returns a stop
// function that ends it and writes a post-GC heap profile to
// dir/heap.pprof. With dir empty both are no-ops.
func startProfiles(dir string) (func() error, error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("workload: profile dir: %w", err)
	}
	cf, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, fmt.Errorf("workload: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(cf); err != nil {
		cf.Close()
		return nil, fmt.Errorf("workload: cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cf.Close(); err != nil {
			return fmt.Errorf("workload: cpu profile: %w", err)
		}
		hf, err := os.Create(filepath.Join(dir, "heap.pprof"))
		if err != nil {
			return fmt.Errorf("workload: heap profile: %w", err)
		}
		// A forced GC first, so the profile shows steady-state live
		// objects rather than whatever garbage the loop's tail left.
		runtime.GC()
		if err := pprof.WriteHeapProfile(hf); err != nil {
			hf.Close()
			return fmt.Errorf("workload: heap profile: %w", err)
		}
		return hf.Close()
	}, nil
}

type recorder struct {
	mu        sync.Mutex
	latencies []time.Duration
	services  []time.Duration
	errs      atomic.Int64
	cancelled atomic.Int64
	ops       atomic.Int64
}

func (rec *recorder) record(sojourn, service time.Duration, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		rec.cancelled.Add(1)
		return
	}
	if err != nil {
		rec.errs.Add(1)
		return
	}
	rec.ops.Add(1)
	rec.mu.Lock()
	rec.latencies = append(rec.latencies, sojourn)
	if service >= 0 {
		rec.services = append(rec.services, service)
	}
	rec.mu.Unlock()
}

func (r *Runner) result(loop string, rec *recorder, elapsed time.Duration, open bool) *Result {
	cfg := r.cfg
	channels := "warm"
	if cfg.ColdChannels {
		channels = "cold"
	}
	res := &Result{
		SchemaVersion: SchemaVersion,
		Loop:          loop,
		Mode:          cfg.Mode,
		Channels:      channels,
		Workflows:     cfg.Workflows,
		Hops:          cfg.Hops,
		PayloadBytes:  cfg.PayloadBytes,
		Concurrency:   cfg.Concurrency,
		Replicas:      cfg.Replicas,
		Placement:     cfg.Placement,
		DeadlineNS:    int64(cfg.Deadline),
		Kills:         cfg.Kills,
		Fanout:        cfg.Targets,
		Ops:           rec.ops.Load(),
		Errors:        rec.errs.Load(),
		Cancelled:     rec.cancelled.Load(),
		ElapsedNS:     int64(elapsed),
		Latency:       percentiles(rec.latencies),
	}
	// A fanout execution is one hop delivering Targets copies; everything
	// else delivers one copy per hop.
	deliveries := int64(cfg.Hops)
	if cfg.Mode == ModeFanout {
		deliveries = int64(cfg.Targets)
	}
	res.Bytes = res.Ops * deliveries * int64(cfg.PayloadBytes)
	res.Transfers = res.Ops * deliveries
	if sec := elapsed.Seconds(); sec > 0 {
		res.OpsPerSec = float64(res.Ops) / sec
		res.MBPerSec = float64(res.Bytes) / 1e6 / sec
	}
	if open {
		sp := percentiles(rec.services)
		res.ServiceOnly = &sp
	}
	return res
}

// runClosed keeps Concurrency executions in flight until Requests complete.
func (r *Runner) runClosed() (*Result, error) {
	cfg := r.cfg
	pool := sched.New(cfg.Concurrency, cfg.Concurrency)
	rec := &recorder{}
	start := time.Now()
	for i := 0; i < cfg.Requests; i++ {
		inst := r.instances[i%len(r.instances)]
		if err := pool.Submit(func() {
			inst.mu.Lock()
			defer inst.mu.Unlock()
			t0 := time.Now()
			err := r.execute(inst)
			rec.record(time.Since(t0), -1, err)
		}); err != nil {
			return nil, err
		}
	}
	pool.Close()
	return r.result("closed", rec, time.Since(start), false), nil
}

// runOpen offers arrivals at RatePerSec for Duration, queueing behind the
// scheduler when the engine falls behind; latency includes queue wait.
func (r *Runner) runOpen() (*Result, error) {
	cfg := r.cfg
	expected := int(cfg.RatePerSec*cfg.Duration.Seconds()) + cfg.Concurrency
	pool := sched.New(cfg.Concurrency, expected+1)
	rec := &recorder{}
	interval := time.Duration(float64(time.Second) / cfg.RatePerSec)
	start := time.Now()
	next := start
	for arrival := 0; ; arrival++ {
		now := time.Now()
		if now.Sub(start) >= cfg.Duration {
			break
		}
		if wait := next.Sub(now); wait > 0 {
			time.Sleep(wait)
		}
		admitted := time.Now()
		inst := r.instances[arrival%len(r.instances)]
		if err := pool.Submit(func() {
			inst.mu.Lock()
			defer inst.mu.Unlock()
			t0 := time.Now()
			err := r.execute(inst)
			done := time.Now()
			rec.record(done.Sub(admitted), done.Sub(t0), err)
		}); err != nil {
			return nil, err
		}
		next = next.Add(interval)
	}
	pool.Close() // drain the backlog so every admitted arrival resolves
	return r.result("open", rec, time.Since(start), true), nil
}

// Run is the one-shot convenience: deploy, run, tear down.
func Run(cfg Config) (*Result, error) {
	r, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.Run()
}
