package roadrunner

import "github.com/polaris-slo-cloud/roadrunner-go/internal/core"

// Test-only accessors: compiled into test binaries exclusively, they expose
// the conservation baselines (FD tables, the kernel page pool) and the
// wiring (nodes, instance identity, VM sharing, the worker pool) the
// public surface deliberately hides.

// TestingInstanceFDs reports the number of open descriptors in each
// instance's sandbox FD table, in pool order.
func TestingInstanceFDs(f *Function) []int {
	out := make([]int, len(f.insts))
	for i, inst := range f.insts {
		out[i] = inst.inner.Shim().Proc().NumFDs()
	}
	return out
}

// TestingPoolResident reports the named node kernel's page-pool residency.
func TestingPoolResident(p *Platform, node string) int64 {
	k, ok := p.kernels[node]
	if !ok {
		return -1
	}
	return k.Pool().Resident()
}

// TestingInstanceResident reports each instance sandbox account's resident
// bytes (the state-residency level), in pool order.
func TestingInstanceResident(f *Function) []int64 {
	out := make([]int64, len(f.insts))
	for i, inst := range f.insts {
		out[i] = inst.inner.Shim().Account().Snapshot().ResidentBytes
	}
	return out
}

// TestingWithGates installs a pipeline gate on a transfer: before runs in
// the ingress goroutine while the payload is on the wire (queued in the
// channel, neither VM lock held) — the hook the cancellation tests use to
// fire a cancel deterministically mid-transfer.
func TestingWithGates(before func()) TransferOption {
	return func(c *transferConfig) {
		c.gates = &core.PipelineGates{BeforeIngress: before}
	}
}

// TestingPruneChannels destroys every unpinned cached channel on every shim
// — the quiescence step the chaos suite runs before snapshotting baselines,
// so channels that rerouted deliveries established (or faults poisoned) do
// not read as FD/active-count drift. It returns the number destroyed.
func TestingPruneChannels(p *Platform) int {
	p.mu.RLock()
	shims := p.shims
	p.mu.RUnlock()
	n := 0
	for _, s := range shims {
		n += s.PruneChannels()
	}
	return n
}

// TestingWithDataHoseSize sets every shim's virtual-data-hose pipe capacity
// in bytes — also the striping unit of a cross-node transfer: a payload
// crosses in hose-sized chunks, and from the second chunk on the target's
// ingress stage and the calling goroutine deposit whole chunks into the
// target VM side by side (DESIGN.md §3). The pipeline tests shrink it to
// get multi-chunk transfers out of small payloads.
func TestingWithDataHoseSize(n int) Option {
	return func(c *platformConfig) { c.hose = n }
}

// TestingNodes lists the platform's registered node names.
func TestingNodes(p *Platform) []string { return append([]string(nil), p.nodes...) }

// TestingOwner reports the function an instance is a replica of and its
// position in that function's pool.
func TestingOwner(inst *Instance) (*Function, int) { return inst.fn, inst.index }

// TestingSharesVM reports whether two instances live in the same Wasm VM
// (and therefore qualify for user-space transfers).
func TestingSharesVM(a, b *Instance) bool { return a.inner.Shim() == b.inner.Shim() }

// TestingWorkflow returns a function's trusted context.
func TestingWorkflow(f *Function) Workflow { return f.workflow }

// TestingDeleteState removes a state entry of the function's workflow.
func TestingDeleteState(f *Function, key string) {
	f.platform.state.Delete(core.Workflow{Name: f.workflow.Name, Tenant: f.workflow.Tenant}, key)
}

// TestingWaitWorkers blocks until every task submitted to the platform's
// worker pool so far has finished — and been counted in SchedulerStats'
// Completed, which a worker bumps after the task has published its result.
func TestingWaitWorkers(p *Platform) {
	p.mu.RLock()
	pool := p.pool
	p.mu.RUnlock()
	if pool != nil {
		pool.Wait()
	}
}
