// The Plan builder: the declarative half of the platform's context-first
// Plan/Submit plane. A Plan declares a DAG of data-plane operations — Xfer,
// Hop chains, Cast, Fan and Invoke nodes, each with its own TransferOptions
// and explicit After dependencies — and Platform.Submit (job.go) executes it
// through the invoke-routing engine and the worker pool under one
// context.Context. Each node kind also has one synchronous one-shot form
// (TransferCtx, ChainCtx, MulticastCtx, FanoutCtx, InvokeCtx) that runs the
// node's validation and body without building a Plan; see DESIGN.md §7.
package roadrunner

import (
	"context"
	"errors"
	"fmt"
)

// PlanError reports a plan that failed validation, naming the offending
// node. It wraps the underlying cause (ErrModeUnavailable,
// ErrForeignInstance, ErrWorkflowMismatch, …) for errors.Is / errors.As.
type PlanError struct {
	// Node is the label of the offending node ("" for plan-level faults
	// such as an empty plan).
	Node string
	// Op names the node's operation kind ("xfer", "hop", "cast", "fan",
	// "invoke", or "plan" for plan-level faults).
	Op string
	// Err is the underlying cause.
	Err error
}

// Error formats the validation failure.
func (e *PlanError) Error() string {
	if e.Node == "" {
		return fmt.Sprintf("roadrunner: invalid plan: %v", e.Err)
	}
	return fmt.Sprintf("roadrunner: invalid plan: node %s (%s): %v", e.Node, e.Op, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *PlanError) Unwrap() error { return e.Err }

// Plan-validation causes that have no platform-level sentinel of their own.
var (
	errEmptyPlan   = errors.New("plan has no nodes")
	errNilFunction = errors.New("nil function")
	errPlanCycle   = errors.New("dependency cycle")
	errForeignPlan = errors.New("dependency node belongs to a different plan")
	errForeignFn   = errors.New("function deployed on a different platform")
	errChainShort  = errors.New("chain needs at least 2 functions")
	errNoTargets   = errors.New("no targets")
	errNegBytes    = errors.New("negative payload size")
)

// opKind enumerates plan-node operations.
type opKind int

const (
	opXfer opKind = iota
	opHop
	opCast
	opFan
	opInvoke
)

// String names the operation as PlanError messages spell it.
func (k opKind) String() string {
	switch k {
	case opXfer:
		return "xfer"
	case opHop:
		return "hop"
	case opCast:
		return "cast"
	case opFan:
		return "fan"
	case opInvoke:
		return "invoke"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// PlanNode is one operation of a Plan. Nodes are created by the Plan's
// builder methods and wired into a DAG with After; a node must not be
// mutated once the plan has been submitted.
type PlanNode struct {
	plan    *Plan
	id      int // index into plan.nodes
	label   string
	op      opKind
	src     *Function
	dst     *Function   // xfer, invoke
	fns     []*Function // hop: the chain line, head first
	targets []*Function // cast, fan
	bytes   int         // hop/fan/invoke: payload produced at the head
	opts    []TransferOption
	deps    []*PlanNode
	// input wires the node's source region to a dependency's delivery
	// (From); nil means the source's current output (Xfer/Cast) or a fresh
	// produce (Hop/Fan/Invoke).
	input *PlanNode
}

// Label returns the node's label: the auto-assigned "op#id", or the name set
// with Named. Labels identify nodes in PlanError and NodeResult.
func (n *PlanNode) Label() string { return n.label }

// Named sets the node's label and returns the node for chaining.
func (n *PlanNode) Named(label string) *PlanNode {
	n.label = label
	return n
}

// After declares that this node runs only once every listed node has
// completed successfully (a failed or skipped dependency skips this node,
// propagating the dependency's error). It returns the node for chaining.
func (n *PlanNode) After(deps ...*PlanNode) *PlanNode {
	n.deps = append(n.deps, deps...)
	return n
}

// From wires dep's delivery into this node as its source region: the
// consumer transfers exactly the payload dep delivered, pinned to the
// concrete instance it landed on (WithSourceRef + WithSourceInstance
// semantics), with After(dep) implied. This is the DAG's explicit dataflow
// edge — a delivered region does not otherwise become the target's
// registered output (that remains SetOutput's job). Only Xfer and Cast
// nodes consume an input, and only from a single-delivery dependency
// (Xfer, Hop or Invoke) whose delivery function is this node's source;
// validation rejects anything else with a *PlanError.
func (n *PlanNode) From(dep *PlanNode) *PlanNode {
	n.input = dep
	return n.After(dep)
}

// Plan is a declarative DAG of data-plane operations. Build it with the
// node methods (Xfer, Hop, Cast, Fan, Invoke), wire dependencies with
// PlanNode.After, and execute it with Platform.Submit. A plan of one node
// has a synchronous shortcut: the one-shot ...Ctx method of the node's kind.
//
// A Plan is validated once per submission (cycle, mode, workflow and
// ownership checks, each failure a typed *PlanError naming the node) and is
// reusable: submitting the same plan twice executes it twice, with results
// accumulating in each submission's Job, never in the Plan.
type Plan struct {
	nodes []*PlanNode
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{} }

// Nodes returns the plan's nodes in creation order.
func (pl *Plan) Nodes() []*PlanNode {
	out := make([]*PlanNode, len(pl.nodes))
	copy(out, pl.nodes)
	return out
}

func (pl *Plan) add(n *PlanNode) *PlanNode {
	n.plan = pl
	n.id = len(pl.nodes)
	n.label = fmt.Sprintf("%s#%d", n.op, n.id)
	pl.nodes = append(pl.nodes, n)
	return n
}

// Xfer declares a transfer of src's current output to dst (the Plan form of
// TransferCtx): source resolved from src's active instance, target routed by
// the placement policy, both overridable with instance pins in opts.
func (pl *Plan) Xfer(src, dst *Function, opts ...TransferOption) *PlanNode {
	return pl.add(&PlanNode{op: opXfer, src: src, dst: dst, opts: opts})
}

// Hop declares a streaming chain (the Plan form of ChainCtx): an
// n-byte payload produced at fns[0] and forwarded hop by hop through the
// rest, opts applied per hop.
func (pl *Plan) Hop(n int, fns []*Function, opts ...TransferOption) *PlanNode {
	return pl.add(&PlanNode{op: opHop, fns: fns, bytes: n, opts: opts})
}

// Cast declares a multicast of src's current output to every target in one
// pass over the virtual data hose (the Plan form of MulticastCtx).
func (pl *Plan) Cast(src *Function, targets []*Function, opts ...TransferOption) *PlanNode {
	return pl.add(&PlanNode{op: opCast, src: src, targets: targets, opts: opts})
}

// Fan declares a produce-once fan-out of an n-byte payload from src to
// every target across the worker pool (the Plan form of FanoutCtx).
func (pl *Plan) Fan(src *Function, targets []*Function, n int, opts ...TransferOption) *PlanNode {
	return pl.add(&PlanNode{op: opFan, src: src, targets: targets, bytes: n, opts: opts})
}

// Invoke declares a routed end-to-end invocation (the Plan form of
// InvokeCtx): the placement policy picks the instance pair, an n-byte
// payload is produced at the source instance and delivered to the target
// instance. The node's result carries the concrete Invocation.
func (pl *Plan) Invoke(src, dst *Function, n int, opts ...TransferOption) *PlanNode {
	return pl.add(&PlanNode{op: opInvoke, src: src, dst: dst, bytes: n, opts: opts})
}

// fail wraps a validation cause in a PlanError naming the node.
func (n *PlanNode) fail(err error) *PlanError {
	return &PlanError{Node: n.label, Op: n.op.String(), Err: err}
}

// validate checks the plan against the submitting platform and returns a
// topological execution order. Checks are static and conservative: they
// reject only plans that could not possibly execute (unknown functions, a
// forced mode no instance pair can satisfy, a dependency cycle); anything
// placement-dependent is left to execution, which reports through the
// node's result instead.
func (pl *Plan) validate(p *Platform) ([]int, error) {
	if pl == nil || len(pl.nodes) == 0 {
		return nil, &PlanError{Op: "plan", Err: errEmptyPlan}
	}
	for _, n := range pl.nodes {
		if err := n.check(p); err != nil {
			return nil, err
		}
	}
	return pl.topoOrder()
}

// checkFn validates one of the node's functions against the platform.
func (n *PlanNode) checkFn(p *Platform, f *Function) error {
	if f == nil {
		return n.fail(errNilFunction)
	}
	if f.platform != p {
		return n.fail(fmt.Errorf("%s: %w", f.Name(), errForeignFn))
	}
	return nil
}

// admit is the front half of every one-shot verb (TransferCtx, ChainCtx,
// MulticastCtx, FanoutCtx, InvokeCtx): the node's plan validation, failing
// with the same typed *PlanError a Submit of that node would, then one poll
// of ctx before the engine body runs.
func (n *PlanNode) admit(ctx context.Context, p *Platform) error {
	if err := n.check(p); err != nil {
		return err
	}
	return ctxErr(ctx)
}

// check validates one node's functions, options and mode against the
// platform. It allocates only on failure, so the one-shot verbs can run it
// per call.
func (n *PlanNode) check(p *Platform) error {
	switch n.op {
	case opXfer, opInvoke:
		if err := n.checkFn(p, n.src); err != nil {
			return err
		}
		if err := n.checkFn(p, n.dst); err != nil {
			return err
		}
	case opHop:
		if len(n.fns) < 2 {
			return n.fail(fmt.Errorf("%w, got %d", errChainShort, len(n.fns)))
		}
		for _, f := range n.fns {
			if err := n.checkFn(p, f); err != nil {
				return err
			}
		}
	case opCast, opFan:
		if len(n.targets) == 0 {
			return n.fail(errNoTargets)
		}
		if err := n.checkFn(p, n.src); err != nil {
			return err
		}
		for _, f := range n.targets {
			if err := n.checkFn(p, f); err != nil {
				return err
			}
		}
	}
	if n.bytes < 0 {
		return n.fail(errNegBytes)
	}

	cfg := cfgPool.Get().(*transferConfig)
	*cfg = transferConfig{}
	for _, opt := range n.opts {
		opt(cfg)
	}
	cerr := n.checkOpts(cfg)
	putTransferConfig(cfg)
	if cerr != nil {
		return cerr
	}
	return n.checkInput()
}

// checkOpts validates the node's resolved transfer options. Split from
// check so the pooled config can be returned on one path regardless of
// which validation fails.
func (n *PlanNode) checkOpts(cfg *transferConfig) error {
	switch n.op {
	case opCast:
		if cfg.mode == ModeUserSpace {
			return n.fail(fmt.Errorf("multicast shares kernel pages across VMs, mode %v: %w", cfg.mode, ErrModeUnavailable))
		}
		if cfg.dstInst != nil {
			return n.fail(fmt.Errorf("multicast routes every target by policy, cannot pin one target instance: %w", ErrModeUnavailable))
		}
		if err := n.checkCastModeReachable(cfg); err != nil {
			return err
		}
	case opFan:
		if cfg.dstInst != nil {
			return n.fail(fmt.Errorf("fanout routes every target by policy, cannot pin one target instance: %w", ErrModeUnavailable))
		}
	case opXfer, opInvoke:
		if cfg.srcInst != nil && cfg.srcInst.fn != n.src {
			return n.fail(fmt.Errorf("source %s: %w", cfg.srcInst.Name(), ErrForeignInstance))
		}
		if cfg.dstInst != nil && cfg.dstInst.fn != n.dst {
			return n.fail(fmt.Errorf("target %s: %w", cfg.dstInst.Name(), ErrForeignInstance))
		}
		if err := n.checkModeReachable(*cfg); err != nil {
			return err
		}
	}
	return nil
}

// checkInput validates a From dataflow edge: only Xfer and Cast consume an
// input, only from a single-delivery dependency whose delivery function is
// the consumer's source.
func (n *PlanNode) checkInput() error {
	if n.input == nil {
		return nil
	}
	if n.op != opXfer && n.op != opCast {
		return n.fail(fmt.Errorf("%s nodes produce their own payload and cannot take a From input", n.op))
	}
	if n.input.plan != n.plan {
		return n.fail(errForeignPlan)
	}
	dfn := n.input.deliveryFn()
	if dfn == nil {
		return n.fail(fmt.Errorf("From(%s): %s nodes deliver to multiple targets and cannot feed a single source", n.input.label, n.input.op))
	}
	if dfn != n.src {
		return n.fail(fmt.Errorf("From(%s): dependency delivers into %s, not this node's source %s", n.input.label, dfn.Name(), n.src.Name()))
	}
	return nil
}

// deliveryFn is the function a single-delivery node delivers into (nil for
// multi-target kinds).
func (n *PlanNode) deliveryFn() *Function {
	switch n.op {
	case opXfer, opInvoke:
		return n.dst
	case opHop:
		if len(n.fns) == 0 {
			return nil
		}
		return n.fns[len(n.fns)-1]
	default:
		return nil
	}
}

// checkModeReachable rejects a forced transfer mode no (source, target)
// instance pair of the node's pools can possibly satisfy — the static half
// of the mode check; the dynamic half (reachability from the concrete
// source instance the router picks) stays with execution.
func (n *PlanNode) checkModeReachable(cfg transferConfig) error {
	if cfg.mode == ModeAuto {
		return nil
	}
	if cfg.mode == ModeUserSpace && n.src.workflow != n.dst.workflow {
		// Sharing a VM requires one workflow (§3.1); distinct workflows can
		// never have a user-space-eligible pair.
		return n.fail(fmt.Errorf("user-space transfer between workflows %q and %q: %w",
			n.src.workflow.Name, n.dst.workflow.Name, ErrWorkflowMismatch))
	}
	for _, si := range n.src.insts {
		if cfg.srcInst != nil && si != cfg.srcInst {
			continue
		}
		eligible := modeEligible(si, n.dst, cfg.mode)
		for j := range n.dst.insts {
			if cfg.dstInst != nil && n.dst.insts[j] != cfg.dstInst {
				continue
			}
			if eligible(j) {
				return nil
			}
		}
	}
	return n.fail(fmt.Errorf("no instance pair of (%s, %s) reachable in mode %v: %w",
		n.src.Name(), n.dst.Name(), cfg.mode, ErrModeUnavailable))
}

// checkCastModeReachable is checkModeReachable's multicast counterpart:
// with a forced mode, every target pool must hold at least one instance the
// source pool can reach that way — ModeKernelSpace needs a co-located
// (different-shim) pair per target, ModeNetwork a cross-node one. Like the
// unicast check it is static and conservative; health and concrete routing
// stay with execution.
func (n *PlanNode) checkCastModeReachable(cfg *transferConfig) error {
	if cfg.mode != ModeKernelSpace && cfg.mode != ModeNetwork {
		return nil
	}
	for _, t := range n.targets {
		reachable := false
		for _, si := range n.src.insts {
			if cfg.srcInst != nil && si != cfg.srcInst {
				continue
			}
			eligible := modeEligible(si, t, cfg.mode)
			for j := range t.insts {
				if eligible(j) {
					reachable = true
					break
				}
			}
			if reachable {
				break
			}
		}
		if !reachable {
			return n.fail(fmt.Errorf("no instance of target %s reachable from %s in mode %v: %w",
				t.Name(), n.src.Name(), cfg.mode, ErrModeUnavailable))
		}
	}
	return nil
}

// topoOrder returns node indices in dependency order, or a *PlanError on a
// cycle or a dependency from another plan.
func (pl *Plan) topoOrder() ([]int, error) {
	const (
		white = iota // unvisited
		gray         // on the DFS stack
		black        // done
	)
	color := make([]int, len(pl.nodes))
	order := make([]int, 0, len(pl.nodes))
	var visit func(n *PlanNode) error
	visit = func(n *PlanNode) error {
		switch color[n.id] {
		case gray:
			return n.fail(errPlanCycle)
		case black:
			return nil
		}
		color[n.id] = gray
		for _, dep := range n.deps {
			if dep == nil || dep.plan != pl {
				return n.fail(errForeignPlan)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		color[n.id] = black
		order = append(order, n.id)
		return nil
	}
	for _, n := range pl.nodes {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return order, nil
}
