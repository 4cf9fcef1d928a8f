// Package roadrunner is a Go reproduction of "Roadrunner: Accelerating Data
// Delivery to WebAssembly-Based Serverless Functions" (MIDDLEWARE '25): a
// sidecar-shim middleware giving Wasm serverless functions near-zero-copy,
// serialization-free data delivery over three transfer modes — user space
// (functions sharing one Wasm VM), kernel space (co-located sandboxes over
// IPC), and network (a vmsplice/splice virtual data hose between nodes).
//
// The package runs an entire edge–cloud deployment inside one process: a
// pure-Go WebAssembly interpreter hosts the functions, a simulated kernel
// moves the bytes (metering every copy, syscall and context switch), and a
// modeled network attributes wire time. Functions deploy as pools of warm
// replica instances spread across nodes, and an invoker plane routes every
// transfer to a concrete instance pair by a pluggable placement policy
// (see DESIGN.md §4). See DESIGN.md §1 for the substitution map against the
// paper's testbed.
//
// The public API is a context-first Plan/Submit plane (DESIGN.md §7): a
// Plan declares a DAG of operations (Xfer, Hop chains, Cast, Fan, Invoke)
// with From dataflow edges, Platform.Submit(ctx, plan) executes it through
// the invoker plane and worker pool, and cancellation reaches queue
// admission, hop scheduling and the pipeline's stage boundaries. Each kind
// of node also has one synchronous, ctx-first one-shot form — TransferCtx,
// ChainCtx, MulticastCtx, FanoutCtx, InvokeCtx — that validates the node
// and runs its body on the calling goroutine; asynchronous execution is
// Submit plus Job.NodeDone/NodeResult.
//
// Quick start:
//
//	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"))
//	defer p.Close()
//	a, _ := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: "edge"})
//	b, _ := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: "cloud"})
//	plan := roadrunner.NewPlan()
//	inv := plan.Invoke(a, b, 8<<20)
//	job, _ := p.Submit(ctx, plan)
//	res, _ := job.Wait(ctx)
//	ref := res.Node(inv).Ref()
//	sum, _ := ref.Instance().Checksum(ref)
//	fmt.Println(res.Node(inv).Report().Latency(), sum)
//
// Or, the one-shot shortcut:
//
//	a.Produce(8 << 20)
//	ref, report, _ := p.TransferCtx(ctx, a, b)
package roadrunner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/core"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/invoke"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/sched"
)

// Bandwidth is a link rate in bits per second.
type Bandwidth = netsim.Bandwidth

// Bandwidth units.
const (
	// Kbps is one kilobit per second.
	Kbps = netsim.Kbps
	// Mbps is one megabit per second.
	Mbps = netsim.Mbps
	// Gbps is one gigabit per second.
	Gbps = netsim.Gbps
)

// Mode selects a transfer mechanism.
type Mode int

// Transfer modes. ModeAuto picks by locality: same VM → user space, same
// node → kernel space, otherwise network — Roadrunner optimizes
// communication regardless of the scheduler's placement (§2.2).
const (
	// ModeAuto lets placement pick the cheapest reachable mechanism.
	ModeAuto Mode = iota
	// ModeUserSpace forces the shared-VM memcpy path.
	ModeUserSpace
	// ModeKernelSpace forces the same-node IPC path.
	ModeKernelSpace
	// ModeNetwork forces the inter-node virtual data hose.
	ModeNetwork
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeUserSpace:
		return "user"
	case ModeKernelSpace:
		return "kernel"
	case ModeNetwork:
		return "network"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Workflow identifies a trusted execution context; only functions of the
// same workflow and tenant may share a Wasm VM.
type Workflow struct {
	Name   string
	Tenant string
}

// Platform errors.
var (
	// ErrUnknownNode reports a node name no kernel was configured for.
	ErrUnknownNode = errors.New("roadrunner: unknown node")
	// ErrWorkflowMismatch rejects VM sharing across trust boundaries.
	ErrWorkflowMismatch = errors.New("roadrunner: functions of different workflows/tenants cannot share a VM")
	// ErrModeUnavailable reports a forced transfer mode no healthy candidate
	// pair can satisfy (e.g. ModeUserSpace across VMs).
	ErrModeUnavailable = errors.New("roadrunner: requested mode incompatible with function placement")
	// ErrClosed reports an operation submitted after Platform.Close.
	ErrClosed = errors.New("roadrunner: platform closed")
	// ErrForeignInstance rejects an instance pin (WithSourceInstance,
	// WithTargetInstance) naming an instance of some other function, a
	// DataRef handed to an instance (or function) that does not own it, and
	// a release of an address that is not a live region of the instance.
	ErrForeignInstance = errors.New("roadrunner: pinned instance belongs to a different function")
	// ErrNoHealthyInstance reports that a function's entire replica pool is
	// excluded by the health FSM (DESIGN.md §8): every instance is Unhealthy
	// (or was excluded by this operation's earlier failed attempts). It is
	// distinct from ErrModeUnavailable, which means healthy candidates exist
	// but none is reachable under the requested transfer mode.
	ErrNoHealthyInstance = errors.New("roadrunner: no healthy instance available")
)

// PlacementPolicy selects the concrete (source-instance, target-instance)
// pair every invocation of a replicated function runs on (DESIGN.md §4).
type PlacementPolicy = invoke.Policy

// Placement policies.
var (
	// PlacementLocality prefers same-VM, then same-node, then the cheapest
	// link — maximizing the user/kernel-mode transfers §2.2 predicts
	// Roadrunner wins on. Equal-cost replicas are tie-broken by load. The
	// default.
	PlacementLocality PlacementPolicy = invoke.Locality
	// PlacementLeastLoaded picks the instance pair with the fewest
	// in-flight invocations, ignoring placement.
	PlacementLeastLoaded PlacementPolicy = invoke.LeastLoaded
	// PlacementRoundRobin cycles through the pools blindly — the
	// placement-oblivious ablation baseline.
	PlacementRoundRobin PlacementPolicy = invoke.RoundRobin
)

// Platform is a simulated multi-node serverless deployment running
// Roadrunner shims.
//
// Platform is safe for concurrent use: transfers between disjoint instance
// pairs run in parallel (serialization happens per Wasm VM, inside
// internal/core), and the registry below is only consulted on the
// deploy/teardown path, never while payload bytes move.
type Platform struct {
	mu sync.RWMutex // guards shims (registry, not transfers)
	// link is the one modeled wire between any two distinct nodes; nodes
	// lists the node names in registration order, and kernels maps each to
	// its kernel. All three are fixed by New and read without a lock.
	link    *netsim.Link
	nodes   []string
	kernels map[string]*kernel.Kernel
	//roadvet:guards mu
	shims  []*core.Shim
	hose   int
	state  *core.StateStore
	place  PlacementPolicy
	health HealthConfig

	workers  int
	poolOnce sync.Once
	pool     *sched.Pool
	closed   bool

	// life gates public data-plane operations against teardown: every
	// operation holds the read side for its duration, and Close takes the
	// write side (after draining the worker pool) before tearing shims
	// down, so post-Close calls get ErrClosed instead of racing teardown.
	life sync.RWMutex
	//roadvet:guards life
	torn bool
}

// Option configures a Platform.
type Option func(*platformConfig)

type platformConfig struct {
	nodes   []string
	link    *netsim.Link
	hose    int
	workers int
	place   PlacementPolicy
	health  HealthConfig
}

// WithNodes pre-registers node names (default: "edge" and "cloud").
func WithNodes(names ...string) Option {
	return func(c *platformConfig) { c.nodes = names }
}

// WithLink sets the link between any two distinct nodes (default: 100 Mbps,
// 1 ms RTT — the paper's testbed, §6.2).
func WithLink(bw Bandwidth, rtt time.Duration) Option {
	return func(c *platformConfig) { c.link = netsim.NewLink(bw, rtt) }
}

// WithWorkers sets the size of the worker pool behind Submit's node bodies
// (default: GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(c *platformConfig) { c.workers = n }
}

// WithPlacement selects the placement policy the invoker plane routes
// replicated functions with (default: PlacementLocality).
func WithPlacement(p PlacementPolicy) Option {
	return func(c *platformConfig) { c.place = p }
}

// WithHealth tunes the per-instance health FSM of every function deployed
// after the option takes effect (DESIGN.md §8): strike thresholds, probe
// cooldowns and the probe backoff. The FSM's clock is cfg.Now, defaulting
// to real time.
func WithHealth(cfg HealthConfig) Option {
	return func(c *platformConfig) { c.health = cfg }
}

// New creates a platform.
func New(opts ...Option) *Platform {
	cfg := platformConfig{
		nodes: []string{"edge", "cloud"},
		link:  netsim.NewLink(100*netsim.Mbps, time.Millisecond),
		place: PlacementLocality,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	kernels := make(map[string]*kernel.Kernel, len(cfg.nodes))
	var nodes []string
	for _, n := range cfg.nodes {
		if _, ok := kernels[n]; !ok {
			nodes = append(nodes, n)
			kernels[n] = kernel.New(n)
		}
	}
	return &Platform{
		link:    cfg.link,
		nodes:   nodes,
		kernels: kernels,
		hose:    cfg.hose,
		state:   core.NewStateStore(),
		place:   cfg.place,
		health:  cfg.health,
		workers: cfg.workers,
	}
}

// Close shuts the platform down in three strict steps: (1) reject new
// deployments and plan submissions, (2) drain the worker pool — every
// accepted Job resolves against live shims — and (3) wait for
// in-flight synchronous operations, after which every public data-plane
// call returns ErrClosed and the shims are torn down. Close never races
// teardown against a running transfer.
func (p *Platform) Close() {
	p.mu.Lock()
	p.closed = true
	pool := p.pool
	p.pool = nil
	shims := p.shims
	p.shims = nil
	p.mu.Unlock()
	if pool != nil {
		pool.Close()
	}
	p.life.Lock()
	p.torn = true
	p.life.Unlock()
	for _, s := range shims {
		s.Close()
	}
}

// beginOp admits one public data-plane operation, holding teardown off until
// the matching endOp; it fails with ErrClosed once Close has finished
// draining (operations admitted earlier, and jobs accepted before Close,
// complete against live shims first). Public entry points call it
// exactly once — internal helpers never do, so the read lock is never
// nested within one goroutine.
func (p *Platform) beginOp() error {
	p.life.RLock()
	if p.torn {
		p.life.RUnlock()
		return ErrClosed
	}
	return nil
}

// endOp retires the operation admitted by beginOp.
func (p *Platform) endOp() { p.life.RUnlock() }

// scheduler lazily starts the platform's worker pool. It returns nil once
// the platform is closed.
func (p *Platform) scheduler() *sched.Pool {
	p.poolOnce.Do(func() {
		p.mu.Lock()
		if !p.closed {
			p.pool = sched.New(p.workers, 0)
		}
		p.mu.Unlock()
	})
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.pool
}

// SchedulerStats reports worker-pool activity (zero value before the first
// Submit).
func (p *Platform) SchedulerStats() sched.Stats {
	p.mu.RLock()
	pool := p.pool
	p.mu.RUnlock()
	if pool == nil {
		return sched.Stats{}
	}
	return pool.Stats()
}

// FunctionSpec describes one function deployment.
type FunctionSpec struct {
	// Name identifies the function.
	Name string
	// Node places the function (must be registered). With Replicas > 1 it
	// is the pool's first node unless Nodes is set.
	Node string
	// Replicas sizes the warm instance pool (default 1). Each replica gets
	// its own shim, sandbox and Wasm VM; the invoker plane routes every
	// invocation to a concrete instance by the platform's placement policy.
	Replicas int
	// Nodes spreads the replica pool round-robin across these registered
	// nodes (default: just Node).
	Nodes []string
	// Workflow is the trusted context (defaults to {"default","default"}).
	Workflow Workflow
	// ShareVMWith colocates this function inside an existing function's
	// Wasm VM, enabling user-space transfers. Requires the same workflow
	// and tenant; replica i shares the VM (and inherits the node) of the
	// host's instance i modulo the host's pool size.
	ShareVMWith *Function
}

// Function is a deployed Roadrunner-managed function: a pool of one or more
// warm replica instances. The public API keeps operating on *Function —
// the invoker plane resolves a concrete instance per invocation — while
// Instance(i) is the explicit escape hatch for tests and advanced callers.
type Function struct {
	platform *Platform
	name     string
	workflow Workflow
	insts    []*Instance
	eps      []invoke.Endpoint
	route    *invoke.State

	// active is the instance holding the function's current output: the
	// last instance a routed produce/call/delivery landed on. A transfer
	// without a source pin reads from it.
	// Data verbs on a delivered region route by the region's owner
	// (DataRef.Instance), never by it.
	activeMu sync.Mutex
	active   *Instance
}

// Deploy places a function per the spec: a pool of Replicas warm instances
// spread across the spec's nodes, each with a dedicated shim (and Wasm VM)
// unless ShareVMWith is set.
func (p *Platform) Deploy(spec FunctionSpec) (*Function, error) {
	p.mu.RLock()
	closed := p.closed
	p.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	wf := spec.Workflow
	if wf == (Workflow{}) {
		wf = Workflow{Name: "default", Tenant: "default"}
	}
	replicas := spec.Replicas
	if replicas <= 0 {
		replicas = 1
	}
	nodes := spec.Nodes
	if len(nodes) == 0 {
		nodes = []string{spec.Node}
	}

	f := &Function{platform: p, name: spec.Name, workflow: wf}
	var created []*core.Shim // dedicated shims, registered only on full success
	fail := func(err error) (*Function, error) {
		for _, s := range created {
			s.Close()
		}
		return nil, err
	}

	if spec.ShareVMWith != nil && spec.ShareVMWith.workflow != wf {
		// Trust rule of §3.1: same workflow AND tenant required to share
		// a VM.
		return nil, fmt.Errorf("%s with %s: %w", spec.Name, spec.ShareVMWith.Name(), ErrWorkflowMismatch)
	}
	if spec.ShareVMWith == nil {
		for _, n := range nodes {
			if _, ok := p.kernels[n]; !ok {
				return nil, fmt.Errorf("%q: %w", n, ErrUnknownNode)
			}
		}
	}

	for i := 0; i < replicas; i++ {
		instName := spec.Name
		if replicas > 1 {
			instName = fmt.Sprintf("%s#%d", spec.Name, i)
		}
		var (
			inner *core.Function
			node  string
			err   error
		)
		if host := spec.ShareVMWith; host != nil {
			hi := host.insts[i%len(host.insts)]
			inner, err = hi.inner.Shim().AddFunction(instName)
			node = hi.node
		} else {
			node = nodes[i%len(nodes)]
			var shim *core.Shim
			shim, err = core.NewShim(core.ShimConfig{
				Name:          "shim-" + instName,
				Workflow:      core.Workflow{Name: wf.Name, Tenant: wf.Tenant},
				Kernel:        p.kernels[node],
				Module:        guest.Module(),
				DataHoseBytes: p.hose,
			})
			if err == nil {
				created = append(created, shim)
				inner, err = shim.AddFunction(instName)
			}
		}
		if err != nil {
			return fail(err)
		}
		inst := &Instance{fn: f, inner: inner, node: node, index: i}
		f.insts = append(f.insts, inst)
		f.eps = append(f.eps, invoke.Endpoint{Node: node, VM: inner.Shim()})
	}

	if len(created) > 0 {
		p.mu.Lock()
		if p.closed {
			// Close ran while the pool was being built; it will never be
			// swept again, so tear it down here instead of leaking it.
			p.mu.Unlock()
			return fail(ErrClosed)
		}
		p.shims = append(p.shims, created...)
		p.mu.Unlock()
	}
	f.route = invoke.NewStateWithHealth(replicas, p.health)
	f.active = f.insts[0]
	return f, nil
}

// TransferOption tunes one transfer.
type TransferOption func(*transferConfig)

type transferConfig struct {
	mode      Mode
	sourceRef *DataRef
	srcInst   *Instance
	dstInst   *Instance
	// ctx is the operation's cancellation context, set by the ...Ctx entry
	// points (never by a TransferOption); nil means never cancelled.
	ctx context.Context
	// gates carries pipeline test instrumentation (export_test.go only).
	gates *core.PipelineGates
}

// cfgPool recycles transferConfig values. Applying a TransferOption calls
// through a func value, which makes the config pointer escape, so a
// stack-declared config would heap-allocate on every transfer; drawing it
// from a pool keeps option application off the zero-alloc hot path.
var cfgPool = sync.Pool{New: func() any { return new(transferConfig) }}

// putTransferConfig clears a pooled config — it holds context, instance
// and region pointers that must not outlive the call — and returns it.
func putTransferConfig(cfg *transferConfig) {
	*cfg = transferConfig{}
	cfgPool.Put(cfg)
}

// WithMode forces a specific transfer mechanism. On a replicated target the
// invoker plane only considers instances the mode can reach (same VM for
// user space, same node for kernel space, other nodes for network);
// ErrModeUnavailable is returned when the pool has none.
func WithMode(m Mode) TransferOption {
	return func(c *transferConfig) { c.mode = m }
}

// WithSourceRef pins the region the transfer reads from the source function
// instead of asking the guest for its latest output. The region is
// re-registered (set_output) and located atomically inside the transfer's
// source stage, under the source VM lock — which is what lets streaming
// chains hand a delivered region to the next hop with no window in which a
// concurrent transfer through the same function could retarget its output.
// A ref the platform returned also pins the source instance: the region is
// read from ref.Instance(). Such a ref owned by an instance outside the
// source function's pool, or combined with a WithSourceInstance pin naming
// another instance, fails with ErrForeignInstance. A caller-built
// DataRef{Ptr, Len} has no owner and addresses the resolved source
// instance.
func WithSourceRef(ref DataRef) TransferOption {
	return func(c *transferConfig) { c.sourceRef = &ref }
}

// WithSourceInstance pins the concrete source instance the invocation reads
// from, bypassing the placement policy for that side — the escape hatch
// replicated tests and instance-affine callers use.
func WithSourceInstance(inst *Instance) TransferOption {
	return func(c *transferConfig) { c.srcInst = inst }
}

// WithTargetInstance pins the concrete target instance the invocation
// delivers into, bypassing the placement policy for that side.
func WithTargetInstance(inst *Instance) TransferOption {
	return func(c *transferConfig) { c.dstInst = inst }
}

// ChannelStats counts channel-cache activity: Hits and Misses split warm
// from cold transfers, Evictions counts idle/LRU teardowns, Active is the
// number of currently cached channels.
type ChannelStats = core.ChannelStats

// ChannelStats aggregates channel-cache activity across every deployed shim.
func (p *Platform) ChannelStats() ChannelStats {
	p.mu.RLock()
	shims := p.shims
	p.mu.RUnlock()
	var st ChannelStats
	for _, s := range shims {
		st = st.Add(s.ChannelStats())
	}
	return st
}

// DataRef locates data inside one instance's linear memory: Len bytes at
// address Ptr. A region means something only in the VM it was allocated
// in, so every ref the platform returns carries its owning instance
// (Instance), and the data verbs route by it: Instance's Checksum,
// Release, SetOutput and ResizeHalf reject a ref owned by another instance
// with ErrForeignInstance, Function.Release hands the region back to its
// owner, and WithSourceRef reads it from there. A caller-built
// DataRef{Ptr, Len} has no owner and addresses whichever instance it is
// handed to.
type DataRef struct {
	Ptr uint32
	Len uint32
	// inst is the instance whose linear memory holds the region (nil for
	// caller-built refs).
	inst *Instance
}

// Instance returns the instance whose linear memory holds the region, or
// nil for a caller-built ref.
func (r DataRef) Instance() *Instance { return r.inst }

// release hands the region back to its owner's guest allocator — the
// cleanup step of every operation that abandons its allocations, and the
// work of Release. The ref must carry an owner. A Ptr that is not a live
// block of the owner fails with ErrForeignInstance and leaves its heap as
// it was.
func (r DataRef) release() error {
	if err := r.inst.inner.Deallocate(r.Ptr); err != nil {
		return fmt.Errorf("%s holds no live region at %d: %w: %w", r.inst.Name(), r.Ptr, ErrForeignInstance, err)
	}
	return nil
}

// checkOwner rejects a ref owned by an instance other than inst; an
// owner-less ref passes.
func (r DataRef) checkOwner(inst *Instance) error {
	if r.inst != nil && r.inst != inst {
		return fmt.Errorf("ref owned by %s, not %s: %w", r.inst.Name(), inst.Name(), ErrForeignInstance)
	}
	return nil
}

// TransferCtx moves src's current output to dst, selecting the mechanism by
// locality unless a mode is forced. The source side reads from the owner of
// a WithSourceRef region, else from the WithSourceInstance pin, else from
// src's active instance (the holder of its current output); the target
// instance is chosen by the platform's placement policy unless pinned with
// WithTargetInstance. The returned ref carries the instance it landed in. Cancellation of
// ctx (or its deadline) is honored at entry and at the pipeline's stage
// boundaries, and an aborted transfer restores the FD, page-pool and
// channel-cache baselines exactly as any other transfer failure does. It
// is the one-shot form of a Plan's Xfer node (DESIGN.md §7): it runs that
// node's validation (typed *PlanError) and then the node body directly, so
// a warm transfer builds no DAG and the whole call stays allocation-free
// above the pipeline.
func (p *Platform) TransferCtx(ctx context.Context, src, dst *Function, opts ...TransferOption) (DataRef, Report, error) {
	n := PlanNode{op: opXfer, src: src, dst: dst, opts: opts, label: "xfer#0"}
	if err := n.admit(ctx, p); err != nil {
		return DataRef{}, Report{}, err
	}
	return p.transferCtx(ctx, src, dst, opts)
}

// transferCtx executes one transfer under ctx — the engine behind Xfer plan
// nodes and TransferCtx.
func (p *Platform) transferCtx(ctx context.Context, src, dst *Function, opts []TransferOption) (DataRef, Report, error) {
	if err := p.beginOp(); err != nil {
		return DataRef{}, Report{}, err
	}
	defer p.endOp()
	if err := ctxErr(ctx); err != nil {
		return DataRef{}, Report{}, err
	}
	cfg := cfgPool.Get().(*transferConfig)
	*cfg = transferConfig{ctx: ctx}
	for _, opt := range opts {
		opt(cfg)
	}
	si, err := resolveSource(src, cfg)
	if err != nil {
		putTransferConfig(cfg)
		return DataRef{}, Report{}, err
	}
	ref, rep, err := p.deliverRouted(si, dst, cfg)
	putTransferConfig(cfg)
	if err != nil {
		return DataRef{}, Report{}, err
	}
	dst.setActive(ref.inst)
	return ref, rep, nil
}

// sourcePin returns the instance a transfer's options pin its source to:
// the owner of a WithSourceRef region, else the WithSourceInstance pin (nil
// when neither pins one). A ref owner that disagrees with an explicit pin
// fails with ErrForeignInstance.
func (cfg *transferConfig) sourcePin() (*Instance, error) {
	if cfg.sourceRef == nil || cfg.sourceRef.inst == nil {
		return cfg.srcInst, nil
	}
	owner := cfg.sourceRef.inst
	if cfg.srcInst != nil && cfg.srcInst != owner {
		return nil, fmt.Errorf("source ref owned by %s, pinned source %s: %w", owner.Name(), cfg.srcInst.Name(), ErrForeignInstance)
	}
	return owner, nil
}

// resolveSource returns the instance a transfer reads from: the pinned one
// (validated against src's pool) or the function's active instance.
func resolveSource(src *Function, cfg *transferConfig) (*Instance, error) {
	si, err := cfg.sourcePin()
	if err != nil {
		return nil, err
	}
	if si == nil {
		return src.ActiveInstance(), nil
	}
	if si.fn != src {
		return nil, fmt.Errorf("source %s: %w", si.Name(), ErrForeignInstance)
	}
	return si, nil
}

// resolveTarget returns the instance a transfer delivers into: the pinned
// one (validated), or the placement policy's choice among the target pool's
// instances the requested mode can reach — minus the ones this operation's
// earlier attempts excluded. Routing failures distinguish an exhausted pool
// (ErrNoHealthyInstance) from a mode restriction (ErrModeUnavailable).
func (p *Platform) resolveTarget(si *Instance, dst *Function, cfg *transferConfig, excluded map[*Instance]bool) (*Instance, error) {
	if cfg.dstInst != nil {
		if cfg.dstInst.fn != dst {
			return nil, fmt.Errorf("target %s: %w", cfg.dstInst.Name(), ErrForeignInstance)
		}
		return cfg.dstInst, nil
	}
	mode := modeEligible(si, dst, cfg.mode)
	eligible := mode
	if len(excluded) > 0 {
		eligible = func(i int) bool {
			return !excluded[dst.insts[i]] && (mode == nil || mode(i))
		}
	}
	i := p.place.PickTarget(si.endpoint(), dst.route, dst.eps, eligible, nil)
	if i < 0 {
		if err := dst.noHealthyErr(excluded); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("no instance of %s reachable in mode %v from %s: %w",
			dst.Name(), cfg.mode, si.Name(), ErrModeUnavailable)
	}
	return dst.insts[i], nil
}

// noHealthyErr reports ErrNoHealthyInstance when the function's whole pool
// is excluded — by the health FSM or by the given per-operation exclusion
// set — and nil when at least one healthy candidate remains (in which case
// a routing failure is a mode restriction, not a health problem).
func (f *Function) noHealthyErr(excluded map[*Instance]bool) error {
	for i := range f.insts {
		if !excluded[f.insts[i]] && f.route.Eligible(i) {
			return nil
		}
	}
	return fmt.Errorf("%s: %w", f.name, ErrNoHealthyInstance)
}

// modeEligible restricts a replicated target's candidate instances to those
// a forced transfer mode can reach; ModeAuto reaches every instance.
func modeEligible(si *Instance, dst *Function, mode Mode) func(int) bool {
	if mode == ModeAuto {
		return nil
	}
	return func(i int) bool { return pairMode(si, dst.insts[i]) == mode }
}

// pairMode is the one mechanism that reaches di from si, the mode ModeAuto
// picks: same VM → user space, same node → kernel space, else network.
func pairMode(si, di *Instance) Mode {
	switch {
	case si.inner.Shim() == di.inner.Shim():
		return ModeUserSpace
	case si.node == di.node:
		return ModeKernelSpace
	default:
		return ModeNetwork
	}
}

// transferInstances executes one transfer on a resolved instance pair,
// marking both ends in flight for its duration. It is the unguarded engine
// entry: callers hold the lifecycle read lock (or run inside the worker
// pool, which Close drains before teardown).
func (p *Platform) transferInstances(si, di *Instance, cfg *transferConfig) (DataRef, Report, error) {
	si.fn.route.Enter(si.index)
	defer si.fn.route.Exit(si.index)
	if di.fn != si.fn || di.index != si.index {
		di.fn.route.Enter(di.index)
		defer di.fn.route.Exit(di.index)
	}
	return p.transferResolved(si, di, cfg)
}

// transferResolved is transferInstances without the in-flight bracketing,
// for callers (invokeOnce) that already hold both ends in flight.
func (p *Platform) transferResolved(si, di *Instance, cfg *transferConfig) (DataRef, Report, error) {
	mode := cfg.mode
	if mode == ModeAuto {
		mode = pairMode(si, di)
	}
	srcRef := coreSourceRef(cfg.sourceRef)
	switch mode {
	case ModeUserSpace:
		ref, rep, err := core.UserSpaceTransfer(si.inner, di.inner, core.UserOptions{
			Ctx:       cfg.ctx,
			SourceRef: srcRef,
		})
		return convert(di, ref, rep, err)
	case ModeKernelSpace:
		ref, rep, err := core.KernelSpaceTransfer(si.inner, di.inner, core.KernelOptions{
			Ctx:       cfg.ctx,
			SourceRef: srcRef,
			Gates:     cfg.gates,
		})
		return convert(di, ref, rep, err)
	case ModeNetwork:
		if si.node == di.node {
			return DataRef{}, Report{}, fmt.Errorf("network mode on one node: %w", ErrModeUnavailable)
		}
		ref, rep, err := core.NetworkTransfer(si.inner, di.inner, core.NetworkOptions{
			Ctx:       cfg.ctx,
			Link:      p.link,
			SourceRef: srcRef,
			Gates:     cfg.gates,
		})
		return convert(di, ref, rep, err)
	default:
		return DataRef{}, Report{}, fmt.Errorf("mode %v: %w", mode, ErrModeUnavailable)
	}
}

// Invocation is the outcome of one routed invocation: where it ran and what
// it delivered. Source and Target name the concrete instances the placement
// policy picked, so callers (and tests) can verify or continue the flow
// instance-exactly even under concurrency.
type Invocation struct {
	// Ref locates the delivered payload in Target's linear memory.
	Ref DataRef
	// Report is the transfer's latency breakdown and resource usage.
	Report Report
	// Source is the instance the payload was produced at.
	Source *Instance
	// Target is the instance the payload was delivered into.
	Target *Instance
}

// InvokeCtx runs one invocation end to end through the invoker plane: the
// placement policy picks a (source-instance, target-instance) pair — both
// ends free unless pinned with WithSourceInstance/WithTargetInstance — an
// n-byte payload is produced at the source instance, and the transfer
// delivers it to the target instance, pinning the produced region so
// concurrent invocations through the same instances cannot interleave
// between produce and read. This is the concurrency-safe entry point for
// replicated functions: everything the caller needs to continue (or verify)
// the flow is in the returned Invocation. A cancelled invocation releases
// the region it produced at the source instance and restores the data-plane
// baselines like any other failed transfer. It is the one-shot form of a
// Plan's Invoke node (DESIGN.md §7).
func (p *Platform) InvokeCtx(ctx context.Context, src, dst *Function, n int, opts ...TransferOption) (*Invocation, error) {
	node := PlanNode{op: opInvoke, src: src, dst: dst, bytes: n, opts: opts, label: "invoke#0"}
	if err := node.admit(ctx, p); err != nil {
		return nil, err
	}
	return p.invokeCtx(ctx, src, dst, n, opts)
}

// invokeCtx executes one routed invocation under ctx — the engine behind
// Invoke plan nodes and InvokeCtx. Instance-fault failures retry with
// exclusion on both ends: the target takes the strike first; a source that
// keeps failing across distinct targets is excluded too (when unpinned and
// replicated), so an invocation survives the death of either end while any
// healthy pair remains.
func (p *Platform) invokeCtx(ctx context.Context, src, dst *Function, n int, opts []TransferOption) (*Invocation, error) {
	if err := p.beginOp(); err != nil {
		return nil, err
	}
	defer p.endOp()
	cfg := transferConfig{ctx: ctx}
	for _, opt := range opts {
		opt(&cfg)
	}
	attempts := maxDeliveryAttempts
	if cfg.srcInst != nil && cfg.dstInst != nil {
		attempts = 1
	}
	var exSrc, exDst map[*Instance]bool
	var lastSrc *Instance
	srcFails := 0
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		si, di, err := p.resolvePair(src, dst, &cfg, exSrc, exDst)
		if err != nil {
			if lastErr != nil {
				err = fmt.Errorf("%w (after delivery failure: %v)", err, lastErr)
			}
			return nil, err
		}
		inv, err := p.invokeOnce(si, di, n, &cfg)
		if err == nil {
			dst.setActive(di)
			return inv, nil
		}
		if !isInstanceFault(err) {
			return nil, err
		}
		// Blame the target first; a source failing with a second distinct
		// target is excluded as well (its replicas permitting).
		di.fn.route.Observe(di.index, 0, err)
		if exDst == nil {
			exDst = make(map[*Instance]bool, attempts)
		}
		exDst[di] = true
		if si == lastSrc {
			srcFails++
		} else {
			lastSrc, srcFails = si, 1
		}
		if srcFails >= 2 && cfg.srcInst == nil && len(src.insts) > 1 {
			si.fn.route.Observe(si.index, 0, err)
			if exSrc == nil {
				exSrc = make(map[*Instance]bool, attempts)
			}
			exSrc[si] = true
		}
		lastErr = err
	}
	return nil, lastErr
}

// invokeOnce is one invocation attempt on a resolved pair: both ends in
// flight from pick time (so concurrent Invokes see each other's pressure),
// produce at the source, deliver to the target, and on any failure release
// the produced region so the attempt leaves the source instance's linear
// memory where it found it.
func (p *Platform) invokeOnce(si, di *Instance, n int, cfg *transferConfig) (*Invocation, error) {
	si.fn.route.Enter(si.index)
	defer si.fn.route.Exit(si.index)
	if di.fn != si.fn || di.index != si.index {
		di.fn.route.Enter(di.index)
		defer di.fn.route.Exit(di.index)
	}
	out, err := si.produceAt(n)
	if err != nil {
		return nil, fmt.Errorf("produce at %s: %w", si.Name(), err)
	}
	attempt := *cfg
	attempt.sourceRef = &out
	ref, rep, err := p.transferResolved(si, di, &attempt)
	if err != nil {
		// The invocation owns the region it produced; hand it back to the
		// guest allocator so an aborted (cancelled, faulted) attempt leaves
		// the source instance's linear memory where it found it.
		_ = out.release()
		return nil, err
	}
	observeDelivery(si, di, rep, nil)
	return &Invocation{Ref: ref, Report: rep, Source: si, Target: di}, nil
}

// resolvePair picks both instances of an invocation, honoring pinned ends
// and the per-operation exclusion sets retry-with-exclusion builds. Routing
// failures distinguish exhausted pools (ErrNoHealthyInstance) from mode
// restrictions (ErrModeUnavailable).
func (p *Platform) resolvePair(src, dst *Function, cfg *transferConfig, exSrc, exDst map[*Instance]bool) (*Instance, *Instance, error) {
	if cfg.srcInst != nil {
		si, err := resolveSource(src, cfg)
		if err != nil {
			return nil, nil, err
		}
		di, err := p.resolveTarget(si, dst, cfg, exDst)
		return si, di, err
	}
	if cfg.dstInst != nil {
		if cfg.dstInst.fn != dst {
			return nil, nil, fmt.Errorf("target %s: %w", cfg.dstInst.Name(), ErrForeignInstance)
		}
		di := cfg.dstInst
		eligible := func(i int) bool {
			if exSrc[src.insts[i]] {
				return false
			}
			e := modeEligible(src.insts[i], dst, cfg.mode)
			return e == nil || e(di.index)
		}
		i := p.place.PickOne(src.route, src.eps, eligible)
		if i < 0 {
			if err := src.noHealthyErr(exSrc); err != nil {
				return nil, nil, err
			}
			return nil, nil, fmt.Errorf("no instance of %s reachable in mode %v to %s: %w",
				src.Name(), cfg.mode, di.Name(), ErrModeUnavailable)
		}
		return src.insts[i], di, nil
	}
	var eligible func(si, di int) bool
	if cfg.mode != ModeAuto || len(exSrc) > 0 || len(exDst) > 0 {
		eligible = func(si, di int) bool {
			if exSrc[src.insts[si]] || exDst[dst.insts[di]] {
				return false
			}
			if cfg.mode == ModeAuto {
				return true
			}
			return modeEligible(src.insts[si], dst, cfg.mode)(di)
		}
	}
	si, di := p.place.PickPair(src.route, src.eps, dst.route, dst.eps, eligible, nil)
	if si < 0 || di < 0 {
		if err := src.noHealthyErr(exSrc); err != nil {
			return nil, nil, err
		}
		if err := dst.noHealthyErr(exDst); err != nil {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("no (%s, %s) instance pair reachable in mode %v: %w",
			src.Name(), dst.Name(), cfg.mode, ErrModeUnavailable)
	}
	return src.insts[si], dst.insts[di], nil
}

// coreSourceRef converts a pinned source region to the core representation.
func coreSourceRef(ref *DataRef) *core.OutputRef {
	if ref == nil {
		return nil
	}
	return &core.OutputRef{Ptr: ref.Ptr, Len: ref.Len}
}

// convert lifts a delivery into di to the public form.
func convert(di *Instance, ref core.InboundRef, rep Report, err error) (DataRef, Report, error) {
	if err != nil {
		return DataRef{}, Report{}, err
	}
	return DataRef{Ptr: ref.Ptr, Len: ref.Len, inst: di}, rep, nil
}
