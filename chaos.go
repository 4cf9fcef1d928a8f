package roadrunner

import (
	"fmt"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
)

// This file is the public fault-injection surface (DESIGN.md §8): the knobs
// the chaos suite, the examples and operators' own failure drills use to
// crash instances, drop wires, poison cached channels and fail whole nodes
// — and to read the health the invoker plane derives from the wreckage.

// FaultSpec schedules one reproducible fault against an instance's (or
// node's) simulated data plane; specs compose into a FaultPlan. See the
// fields' documentation in internal/kernel.
type FaultSpec = kernel.FaultSpec

// FaultPlan is a compiled, replayable fault schedule: identical plans fail
// identical call sequences, which is what makes seeded chaos runs
// reproducible.
type FaultPlan = kernel.FaultPlan

// NewFaultPlan compiles fault specs into a plan for Instance.InjectFault or
// Platform.InjectNodeFault.
func NewFaultPlan(specs ...FaultSpec) *FaultPlan { return kernel.NewFaultPlan(specs...) }

// ErrInjectedIO is the simulated EIO injected faults surface by default; it
// classifies as an instance fault, so routed deliveries retry it on
// surviving replicas.
var ErrInjectedIO = kernel.ErrIO

// InjectFault installs a fault plan's hook on the instance's sandbox: every
// data-plane syscall the instance's shim issues consults the plan first
// (control-plane calls — and therefore teardown — always work). Instances
// deployed into a shared VM (ShareVMWith) share one sandbox, so the fault
// covers every function in that VM. Installing nil recovers the instance.
func (inst *Instance) InjectFault(plan *FaultPlan) {
	if plan == nil {
		inst.inner.Shim().Proc().InjectFault(nil)
		return
	}
	inst.inner.Shim().Proc().InjectFault(plan.Hook())
}

// CrashAfter lets n data-plane syscalls succeed and then crashes the
// instance — the crash-at-Nth-syscall schedule for killing a replica
// mid-operation.
func (inst *Instance) CrashAfter(n int64) { inst.InjectFault(kernel.CrashAfter(n)) }

// Recover clears the instance's fault hook. The health FSM re-admits the
// instance on its own schedule: after the probe cooldown, a successfully
// probed invocation returns it to the candidate pool.
func (inst *Instance) Recover() { inst.InjectFault(nil) }

// PoisonChannels closes the kernel descriptors under every channel the
// instance's shim has cached without telling the cache — the poisoned-
// cached-channel fault: the next transfer over each channel gets a cache
// hit, fails with EBADF (an instance fault, so routed deliveries retry),
// and the failure path destroys the stale entry so a later transfer
// re-establishes it cleanly. It returns the number of channels poisoned.
func (inst *Instance) PoisonChannels() int {
	return inst.inner.Shim().PoisonChannels()
}

// Health reports the instance's position in the routing-health FSM
// (DESIGN.md §8). Unhealthy instances are excluded from every placement
// policy's candidate pool until a probe succeeds.
func (inst *Instance) Health() HealthState { return inst.fn.route.Health(inst.index) }

// InjectNodeFault installs a fault plan's hook kernel-wide on a node: every
// data-plane syscall of every sandbox hosted there consults it, modeling
// node-level failure. Installing nil recovers the node. Unknown nodes fail
// with ErrUnknownNode.
func (p *Platform) InjectNodeFault(node string, plan *FaultPlan) error {
	k, ok := p.kernels[node]
	if !ok {
		return fmt.Errorf("%q: %w", node, ErrUnknownNode)
	}
	if plan == nil {
		k.InjectFault(nil)
		return nil
	}
	k.InjectFault(plan.Hook())
	return nil
}
