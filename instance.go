package roadrunner

import (
	"fmt"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/core"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/invoke"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
)

// Instance is one concrete replica of a deployed Function: its own shim,
// sandbox and Wasm VM (unless deployed into a shared VM) on one node. The
// invoker plane normally resolves instances per invocation behind the
// *Function API; Instance handles are the explicit escape hatch — tests pin
// them with WithSourceInstance/WithTargetInstance, and instance-affine
// callers drive them directly with the same data-plane surface Function
// offers.
type Instance struct {
	fn    *Function
	inner *core.Function
	node  string
	index int
}

// Name returns the instance name (the function name, suffixed "#i" when the
// pool has more than one replica).
func (inst *Instance) Name() string { return inst.inner.Name() }

// Node returns the node the instance is placed on.
func (inst *Instance) Node() string { return inst.node }

// Index returns the instance's position in its function's pool.
func (inst *Instance) Index() int { return inst.index }

// Function returns the function this instance is a replica of.
func (inst *Instance) Function() *Function { return inst.fn }

// endpoint is the instance's placement descriptor.
func (inst *Instance) endpoint() invoke.Endpoint { return inst.fn.eps[inst.index] }

// InFlight reports the invocations currently executing on this instance.
func (inst *Instance) InFlight() int64 { return inst.fn.route.InFlight(inst.index) }

// Invocations reports the cumulative invocations ever routed to this
// instance.
func (inst *Instance) Invocations() int64 { return inst.fn.route.Total(inst.index) }

// ColdStart reports the instance's shim sandbox + VM initialization time.
func (inst *Instance) ColdStart() time.Duration { return inst.inner.Shim().ColdStart() }

// SharesVMWith reports whether two instances live in the same Wasm VM (and
// therefore qualify for user-space transfers).
func (inst *Instance) SharesVMWith(o *Instance) bool {
	return inst.inner.Shim() == o.inner.Shim()
}

// Usage snapshots the instance's sandbox account (the per-replica "cgroup"
// of §6.1). Instances deployed into a shared VM report the shim account
// they share with their host.
func (inst *Instance) Usage() Usage {
	return inst.inner.Shim().Account().Snapshot()
}

// Produce runs the guest payload generator on this instance and records it
// as its function's active instance.
func (inst *Instance) Produce(n int) error {
	if err := inst.fn.platform.beginOp(); err != nil {
		return err
	}
	defer inst.fn.platform.endOp()
	inst.fn.route.Enter(inst.index)
	defer inst.fn.route.Exit(inst.index)
	_, err := inst.produceAt(n)
	return err
}

// produceAt runs the guest payload generator on this instance, records it
// as the function's active instance, and returns the produced region — the
// one routed-produce implementation every produce-then-transfer path
// shares. Callers hold the lifecycle guard and bracket the route gauges.
func (inst *Instance) produceAt(n int) (DataRef, error) {
	out, err := inst.inner.CallPacked(guest.ExportProduce, uint64(n))
	if err != nil {
		return DataRef{}, err
	}
	inst.fn.setActive(inst)
	return DataRef{Ptr: out.Ptr, Len: out.Len}, nil
}

// Output returns the instance's current output region.
func (inst *Instance) Output() (DataRef, error) {
	if err := inst.fn.platform.beginOp(); err != nil {
		return DataRef{}, err
	}
	defer inst.fn.platform.endOp()
	out, err := inst.inner.Output()
	if err != nil {
		return DataRef{}, err
	}
	return DataRef{Ptr: out.Ptr, Len: out.Len}, nil
}

// SetOutput registers delivered data as the instance's output.
func (inst *Instance) SetOutput(ref DataRef) error {
	if err := inst.fn.platform.beginOp(); err != nil {
		return err
	}
	defer inst.fn.platform.endOp()
	return inst.setOutput(ref)
}

// setOutput is SetOutput without the lifecycle guard (for guarded callers).
func (inst *Instance) setOutput(ref DataRef) error {
	if _, err := inst.inner.Call(guest.ExportSetOutput, uint64(ref.Ptr), uint64(ref.Len)); err != nil {
		return err
	}
	// Re-announce so the shim registers the region as readable.
	_, err := inst.inner.Locate()
	return err
}

// Checksum digests a delivered region inside the instance's guest.
func (inst *Instance) Checksum(ref DataRef) (uint64, error) {
	if err := inst.fn.platform.beginOp(); err != nil {
		return 0, err
	}
	defer inst.fn.platform.endOp()
	return inst.checksum(ref)
}

// checksum is Checksum without the lifecycle guard (for guarded callers).
func (inst *Instance) checksum(ref DataRef) (uint64, error) {
	res, err := inst.inner.Call(guest.ExportConsume, uint64(ref.Ptr), uint64(ref.Len))
	if err != nil {
		return 0, err
	}
	return res[0], nil
}

// Release returns delivered data to the instance's guest allocator.
func (inst *Instance) Release(ref DataRef) error {
	if err := inst.fn.platform.beginOp(); err != nil {
		return err
	}
	defer inst.fn.platform.endOp()
	return inst.inner.Deallocate(ref.Ptr)
}

// Call invokes any guest export on this instance and records it as its
// function's active instance.
func (inst *Instance) Call(export string, args ...uint64) ([]uint64, error) {
	if err := inst.fn.platform.beginOp(); err != nil {
		return nil, err
	}
	defer inst.fn.platform.endOp()
	inst.fn.route.Enter(inst.index)
	defer inst.fn.route.Exit(inst.index)
	res, err := inst.inner.Call(export, args...)
	if err == nil {
		inst.fn.setActive(inst)
	}
	return res, err
}

// ResizeHalf runs the guest's 2×2 box-filter downsample over a delivered
// grayscale image on this instance, returning the output region.
func (inst *Instance) ResizeHalf(ref DataRef, w, h int) (DataRef, error) {
	if err := inst.fn.platform.beginOp(); err != nil {
		return DataRef{}, err
	}
	defer inst.fn.platform.endOp()
	return inst.resizeHalf(ref, w, h)
}

// resizeHalf is ResizeHalf without the lifecycle guard.
func (inst *Instance) resizeHalf(ref DataRef, w, h int) (DataRef, error) {
	if uint32(w*h) != ref.Len {
		return DataRef{}, fmt.Errorf("roadrunner: resize %dx%d does not match %d delivered bytes", w, h, ref.Len)
	}
	out, err := inst.inner.CallPacked(guest.ExportResizeHalf, uint64(ref.Ptr), uint64(w), uint64(h))
	if err != nil {
		return DataRef{}, err
	}
	return DataRef{Ptr: out.Ptr, Len: out.Len}, nil
}

// SaveState snapshots the instance's current output under a named key in
// the platform's state store (workflow-scoped, shared by all replicas).
func (inst *Instance) SaveState(key string) error {
	if err := inst.fn.platform.beginOp(); err != nil {
		return err
	}
	defer inst.fn.platform.endOp()
	return inst.fn.platform.state.Put(inst.inner, key)
}

// LoadState delivers a previously saved payload into this instance's linear
// memory.
func (inst *Instance) LoadState(key string) (DataRef, error) {
	if err := inst.fn.platform.beginOp(); err != nil {
		return DataRef{}, err
	}
	defer inst.fn.platform.endOp()
	ref, err := inst.fn.platform.state.Get(inst.inner, key)
	if err != nil {
		return DataRef{}, err
	}
	return DataRef{Ptr: ref.Ptr, Len: ref.Len}, nil
}

// InstanceAccount is one replica's slice of a FunctionReport: its sandbox
// account snapshot plus the invoker plane's routing gauges.
type InstanceAccount struct {
	// Instance is the replica's name ("f#2").
	Instance string
	// Node is the replica's placement.
	Node string
	// InFlight is the number of invocations currently executing on it.
	InFlight int64
	// Invocations is the cumulative count ever routed to it.
	Invocations int64
	// Health is the replica's position in the routing-health FSM
	// (DESIGN.md §8); Unhealthy replicas are excluded from routing.
	Health HealthState
	// Usage is the replica's sandbox account snapshot.
	Usage Usage
}

// FunctionReport aggregates a function's per-instance sandbox accounts into
// one per-function view: every flow counter (copies, syscalls, context
// switches, CPU) in Total is the exact sum of the distinct per-instance
// accounts — instances that share one shim account (pools deployed with
// ShareVMWith) contribute it exactly once; residency, a level rather than a
// flow, is the maximum across instances.
type FunctionReport struct {
	// Function is the function name.
	Function string
	// Instances holds one account per replica, in pool order.
	Instances []InstanceAccount
	// Total folds the per-instance accounts (flows summed, levels maxed).
	Total Usage
}

// Report snapshots the function's per-instance accounts and their
// aggregate. Instances sharing a VM with a host function (ShareVMWith)
// report the shim account they share with that host; such shared accounts
// enter Total exactly once.
func (f *Function) Report() FunctionReport {
	rep := FunctionReport{Function: f.name}
	seen := make(map[*metrics.Account]bool, len(f.insts))
	distinct := make([]Usage, 0, len(f.insts))
	for i, inst := range f.insts {
		u := inst.inner.Shim().Account().Snapshot()
		rep.Instances = append(rep.Instances, InstanceAccount{
			Instance:    inst.Name(),
			Node:        inst.node,
			InFlight:    f.route.InFlight(i),
			Invocations: f.route.Total(i),
			Health:      f.route.Health(i),
			Usage:       u,
		})
		if acct := inst.inner.Shim().Account(); !seen[acct] {
			seen[acct] = true
			distinct = append(distinct, u)
		}
	}
	rep.Total = metrics.SumUsage(distinct...)
	return rep
}
