package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/abi"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/baseline"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/core"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/invoke"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/pagebuf"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/sched"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/serial"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasi"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
)

// cheapBatch is how many calls of a nanosecond-scale function one sample
// brackets, so two clock reads are small beside what they time.
const cheapBatch = 256

// hoseBytes is the shim's default virtual-data-hose pipe capacity.
const hoseBytes = 4 << 20

var probeWorkflow = core.Workflow{Name: "bench", Tenant: "bench"}

// testbedLink is the paper's inter-node link, the platform's default.
func testbedLink() *netsim.Link { return netsim.NewLink(100*netsim.Mbps, time.Millisecond) }

// newProbeFn returns one guest function in a fresh shim on k.
func newProbeFn(k *kernel.Kernel, name string) (*core.Shim, *core.Function, error) {
	s, err := core.NewShim(core.ShimConfig{Name: name, Workflow: probeWorkflow, Kernel: k, Module: guest.Module()})
	if err != nil {
		return nil, nil, err
	}
	f, err := s.AddFunction(name)
	if err != nil {
		s.Close()
		return nil, nil, err
	}
	return s, f, nil
}

// probeWasm times the interpreter: a trivial call, guest produce at P, the
// host's copies in and out of linear memory at P, and module instantiation.
func probeWasm(lr *layerRun) error {
	p := lr.w.payload
	s, f, err := newProbeFn(kernel.New("edge"), "wasm")
	if err != nil {
		return err
	}
	defer s.Close()
	inst, view := f.Instance(), f.View()

	if err := lr.sample("wasm.call", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			for i := 0; i < cheapBatch; i++ {
				if _, err := inst.Call(guest.ExportHello); err != nil {
					return err
				}
			}
			sm.stop(cheapBatch)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := lr.sample("wasm.produce", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			ptr, _, err := view.CallPacked(guest.ExportProduce, uint64(p))
			sm.stop(1)
			if err != nil {
				return err
			}
			if err := view.Deallocate(ptr); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	ptr, err := view.Allocate(uint32(p))
	if err != nil {
		return err
	}
	buf, mem := make([]byte, p), inst.Memory()
	err = lr.sample("wasm.memcopy", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			if err := mem.WriteAt(buf, ptr); err != nil {
				return err
			}
			if err := mem.ReadAt(buf, ptr); err != nil {
				return err
			}
			sm.stop(1)
		}
		return nil
	})
	if derr := view.Deallocate(ptr); err == nil {
		err = derr
	}
	if err != nil {
		return err
	}
	proc := kernel.New("edge").NewProc("instantiate", nil)
	defer proc.CloseAll()
	if err := lr.sample("wasm.instantiate", func(sm *sampler) error {
		for sm.next() {
			imports := wasm.Imports{}
			wasi.NewHost(proc, nil).AddImports(imports)
			imports.Add(abi.ImportModule, abi.ImportSendToHost, abi.SendToHostImport(nil))
			sm.start()
			mod, err := wasm.Decode(guest.Module())
			if err != nil {
				return err
			}
			if _, err := wasm.Instantiate(mod, imports, nil); err != nil {
				return err
			}
			sm.stop(1)
		}
		return nil
	}); err != nil {
		return err
	}
	lr.m["wasm.call_ns"] = lr.ns["wasm.call"]
	lr.m["wasm.produce_mb_s"] = lr.mbPerSec("wasm.produce", p)
	lr.m["wasm.memcopy_mb_s"] = lr.mbPerSec("wasm.memcopy", 2*p)
	lr.m["wasm.instantiate_us"] = lr.us("wasm.instantiate")
	return nil
}

// probeABI times the shim's mediated view: allocate and deallocate, locate,
// and the copy into linear memory at P.
func probeABI(lr *layerRun) error {
	p := lr.w.payload
	s, f, err := newProbeFn(kernel.New("edge"), "abi")
	if err != nil {
		return err
	}
	defer s.Close()
	view := f.View()
	if _, err := f.CallPacked(guest.ExportProduce, 64); err != nil {
		return err
	}

	// Allocate and Deallocate alternate, so both are sampled one call at a
	// time: batching would need cheapBatch live regions.
	dealloc := &sampler{lr: lr, name: "abi.deallocate", parent: lr.root}
	if err := lr.sample("abi.allocate", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			ptr, err := view.Allocate(uint32(p))
			sm.stop(1)
			if err != nil {
				return err
			}
			dealloc.start()
			err = view.Deallocate(ptr)
			dealloc.stop(1)
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	lr.ns["abi.deallocate"] = median(dealloc.perCall)
	if err := lr.sample("abi.locate", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			for i := 0; i < cheapBatch; i++ {
				if _, _, err := view.Locate(); err != nil {
					return err
				}
			}
			sm.stop(cheapBatch)
		}
		return nil
	}); err != nil {
		return err
	}
	ptr, err := view.Allocate(uint32(p))
	if err != nil {
		return err
	}
	data := make([]byte, p)
	err = lr.sample("abi.write", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			if err := view.Write(data, ptr); err != nil {
				return err
			}
			sm.stop(1)
		}
		return nil
	})
	if derr := view.Deallocate(ptr); err == nil {
		err = derr
	}
	if err != nil {
		return err
	}
	lr.m["abi.allocate_ns"] = lr.ns["abi.allocate"] + lr.ns["abi.deallocate"]
	lr.m["abi.locate_ns"] = lr.ns["abi.locate"]
	lr.m["abi.write_mb_s"] = lr.mbPerSec("abi.write", p)
	return nil
}

// probePagebuf times the page layer: the pooled copy, the gift, a reference
// clone, and a ring push and pop, at P.
func probePagebuf(lr *layerRun) error {
	p := lr.w.payload
	pages := pagesOf(p)
	buf := make([]byte, p)
	pool := pagebuf.NewPool()
	if err := lr.sample("pagebuf.copy", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			pagebuf.ReleaseAll(pool.Copy(buf))
			sm.stop(1)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := lr.sample("pagebuf.gift", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			pagebuf.ReleaseAll(pagebuf.Gift(buf))
			sm.stop(1)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := lr.sample("pagebuf.retain", func(sm *sampler) error {
		held := pagebuf.Gift(buf[:1])
		defer pagebuf.ReleaseAll(held)
		for sm.next() {
			sm.start()
			for i := 0; i < cheapBatch; i++ {
				held[0].Retain().Release()
			}
			sm.stop(cheapBatch)
		}
		return nil
	}); err != nil {
		return err
	}
	// Gift, push, pop, release: the gift probe above is the same bracket
	// without the ring, so the difference is Push and Pop. (The page refs go
	// from Gift straight into Push, which owns them from then on.)
	ring := pagebuf.NewRing(p)
	if err := lr.sample("pagebuf.ring", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			if err := ring.Push(pagebuf.Gift(buf)); err != nil {
				return err
			}
			popped, err := ring.Pop(p)
			if err != nil {
				return err
			}
			pagebuf.ReleaseAll(popped)
			sm.stop(1)
		}
		return nil
	}); err != nil {
		return err
	}
	lr.m["pagebuf.copy_mb_s"] = lr.mbPerSec("pagebuf.copy", p)
	lr.m["pagebuf.gift_ns_per_page"] = lr.ns["pagebuf.gift"] / float64(pages)
	lr.m["pagebuf.retain_ns"] = lr.ns["pagebuf.retain"]
	lr.m["pagebuf.ring_ns_per_page"] = max(lr.ns["pagebuf.ring"]-lr.ns["pagebuf.gift"], 0) / float64(pages)
	return nil
}

// readFull drains len(dst) bytes from fd into dst, polling the context per
// read as the kernel ingress does.
func readFull(ctx context.Context, proc *kernel.Proc, fd int, dst []byte) error {
	for off := 0; off < len(dst); {
		if err := core.CtxErr(ctx); err != nil {
			return err
		}
		n, err := proc.Read(fd, dst[off:])
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("zero-progress read: %w", kernel.ErrClosed)
		}
		off += n
	}
	return nil
}

// spliceAll moves n bytes from infd to outfd, looping over short splices.
func spliceAll(ctx context.Context, proc *kernel.Proc, infd, outfd, n int) error {
	for moved := 0; moved < n; {
		if err := core.CtxErr(ctx); err != nil {
			return err
		}
		m, err := proc.Splice(infd, outfd, n-moved)
		if err != nil {
			return err
		}
		moved += m
	}
	return nil
}

// probeKernel times the simulated kernel: a minimal syscall, the copy path
// and the zero-copy hose at P, tee per page, and channel establishment.
func probeKernel(lr *layerRun) error {
	p := lr.w.payload
	src, dst := make([]byte, p), make([]byte, p)
	k1, k2 := kernel.New("edge"), kernel.New("cloud")
	a, b, c := k1.NewProc("a", nil), k1.NewProc("b", nil), k2.NewProc("c", nil)
	defer a.CloseAll()
	defer b.CloseAll()
	defer c.CloseAll()

	fdA, fdB, err := kernel.SocketPair(a, b)
	if err != nil {
		return err
	}
	one := make([]byte, 1)
	if err := lr.sample("kernel.syscall", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			for i := 0; i < cheapBatch; i++ {
				if _, err := a.Write(fdA, one); err != nil {
					return err
				}
				if _, err := b.Read(fdB, one); err != nil {
					return err
				}
			}
			sm.stop(2 * cheapBatch)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := lr.sample("kernel.copy_path", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			if _, err := a.Write(fdA, src); err != nil {
				return err
			}
			if err := readFull(lr.ctx, b, fdB, dst); err != nil {
				return err
			}
			sm.stop(1)
		}
		return nil
	}); err != nil {
		return err
	}

	// Algorithm 1's wire path between two kernels, hose chunk by hose chunk.
	cfd, sfd := kernel.Connect(a, c)
	rfd, wfd := a.PipeSized(hoseBytes)
	trfd, twfd := c.PipeSized(hoseBytes)
	if err := lr.sample("kernel.hose", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			for off := 0; off < p; {
				chunk := min(p-off, hoseBytes)
				if _, err := a.Vmsplice(wfd, src[off:off+chunk]); err != nil {
					return err
				}
				if err := spliceAll(lr.ctx, a, rfd, cfd, chunk); err != nil {
					return err
				}
				if err := spliceAll(lr.ctx, c, sfd, twfd, chunk); err != nil {
					return err
				}
				for got := 0; got < chunk; {
					refs, err := c.ReadRefs(trfd, chunk-got)
					if err != nil {
						return err
					}
					got += pagebuf.TotalLen(refs)
					pagebuf.ReleaseAll(refs)
				}
				off += chunk
			}
			sm.stop(1)
		}
		return nil
	}); err != nil {
		return err
	}

	// tee(2): clone one hose chunk's page references into a second pipe.
	chunk := min(p, hoseBytes)
	trd, twr := a.PipeSized(chunk)
	if err := lr.sample("kernel.tee", func(sm *sampler) error {
		for sm.next() {
			if _, err := a.Vmsplice(wfd, src[:chunk]); err != nil {
				return err
			}
			sm.start()
			n, err := a.Tee(rfd, twr, chunk)
			sm.stop(pagesOf(chunk))
			if err != nil {
				return err
			}
			if n != chunk {
				return fmt.Errorf("tee cloned %d of %d bytes", n, chunk)
			}
			for _, fd := range []int{rfd, trd} {
				for got := 0; got < chunk; {
					refs, err := a.ReadRefs(fd, chunk-got)
					if err != nil {
						return err
					}
					got += pagebuf.TotalLen(refs)
					pagebuf.ReleaseAll(refs)
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// Channel establishment of the op's first hop: a socketpair for the
	// same-node mechanisms, a connection plus two hose pipes for the
	// network one; then teardown.
	network := lr.w.hops[0] == hopNetwork
	if err := lr.sample("kernel.chan_setup", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			if network {
				c1, c2 := kernel.Connect(a, c)
				r1, w1 := a.PipeSized(hoseBytes)
				r2, w2 := c.PipeSized(hoseBytes)
				for _, fd := range []int{c1, r1, w1} {
					if err := a.Close(fd); err != nil {
						return err
					}
				}
				for _, fd := range []int{c2, r2, w2} {
					if err := c.Close(fd); err != nil {
						return err
					}
				}
			} else {
				f1, f2, err := kernel.SocketPair(a, b)
				if err != nil {
					return err
				}
				if err := a.Close(f1); err != nil {
					return err
				}
				if err := b.Close(f2); err != nil {
					return err
				}
			}
			sm.stop(1)
		}
		return nil
	}); err != nil {
		return err
	}
	lr.m["kernel.syscall_ns"] = lr.ns["kernel.syscall"]
	lr.m["kernel.copy_path_mb_s"] = lr.mbPerSec("kernel.copy_path", p)
	lr.m["kernel.hose_mb_s"] = lr.mbPerSec("kernel.hose", p)
	lr.m["kernel.tee_ns_per_page"] = lr.ns["kernel.tee"]
	lr.m["kernel.chan_setup_us"] = lr.us("kernel.chan_setup")
	return nil
}

// probeSched times the worker pool: hand-off of one task to an idle pool,
// and no-op task throughput from as many submitters as CPUs.
func probeSched(lr *layerRun) error {
	nproc := runtime.NumCPU()
	pool := sched.New(nproc, 0)
	defer pool.Close()
	started := make(chan time.Time, 1)
	if err := lr.sample("sched.submit_run", func(sm *sampler) error {
		for sm.next() {
			// Let the workers park, so the sample is the idle wake-up.
			time.Sleep(50 * time.Microsecond)
			sm.start()
			if err := pool.Submit(func() { started <- time.Now() }); err != nil {
				return err
			}
			sm.stopAt(<-started, 1)
		}
		return nil
	}); err != nil {
		return err
	}

	var done atomic.Int64
	var wg sync.WaitGroup
	var firstErr atomic.Value
	begin := time.Now()
	deadline := begin.Add(lr.budget)
	for i := 0; i < nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				for j := 0; j < 64; j++ {
					if err := pool.Submit(func() { done.Add(1) }); err != nil {
						firstErr.Store(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	pool.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return err
	}
	end := time.Now()
	lr.track.record(lr.tr.newID(), "sched.submit_ops", lr.root, lr.tr.nextOp.Add(1), begin, end)
	lr.m["sched.submit_run_ns"] = lr.ns["sched.submit_run"]
	lr.m["sched.submit_ops_s"] = float64(done.Load()) / end.Sub(begin).Seconds()
	return nil
}

// probeInvoke times the invoker plane over the workload's endpoint pools:
// the placement decisions of one op, and one routing-gauge bracket.
func probeInvoke(lr *layerRun) error {
	w := lr.w
	vm := func(i int) any { return &struct{ id int }{i} }
	cost := func(a, b string) time.Duration { return time.Millisecond }
	var decide func()
	if w.produces {
		// plan_*: a and b pools of two over edge and cloud, c alone on far,
		// d in b's VMs.
		vms := []any{vm(0), vm(1)}
		a := []invoke.Endpoint{{Node: "edge", VM: vm(2)}, {Node: "cloud", VM: vm(3)}}
		b := []invoke.Endpoint{{Node: "edge", VM: vms[0]}, {Node: "cloud", VM: vms[1]}}
		c := []invoke.Endpoint{{Node: "far", VM: vm(4)}}
		d := []invoke.Endpoint{{Node: "edge", VM: vms[0]}, {Node: "cloud", VM: vms[1]}}
		sa, sb, sc, sd := invoke.NewState(2), invoke.NewState(2), invoke.NewState(1), invoke.NewState(2)
		decide = func() {
			_, bi := invoke.Locality.PickPair(sa, a, sb, b, nil, cost)
			invoke.Locality.PickTarget(b[bi], sc, c, nil, cost)
			invoke.Locality.PickTarget(b[bi], sd, d, nil, cost)
		}
	} else {
		// xfer_* and mcast_8x1m: one fixed source, one single-instance pool
		// per target.
		src := invoke.Endpoint{Node: "edge", VM: vm(0)}
		node := "edge"
		if w.hops[0] == hopNetwork {
			node = "cloud"
		}
		pool := []invoke.Endpoint{{Node: node, VM: vm(1)}}
		st := invoke.NewState(1)
		decide = func() {
			for t := 0; t < w.fan; t++ {
				invoke.Locality.PickTarget(src, st, pool, nil, cost)
			}
		}
	}
	if err := lr.sample("invoke.pick", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			for i := 0; i < cheapBatch; i++ {
				decide()
			}
			sm.stop(cheapBatch)
		}
		return nil
	}); err != nil {
		return err
	}
	st := invoke.NewState(2)
	if err := lr.sample("invoke.enter_exit", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			for i := 0; i < cheapBatch; i++ {
				st.Enter(0)
				st.Exit(0)
				st.Observe(0, time.Microsecond, nil)
			}
			sm.stop(cheapBatch)
		}
		return nil
	}); err != nil {
		return err
	}
	lr.m["invoke.pick_ns"] = lr.ns["invoke.pick"]
	lr.m["invoke.enter_exit_ns"] = lr.ns["invoke.enter_exit"]
	return nil
}

// probeCore times the direct core transfer of every hop on the op's
// blocking path, on shims from core.NewShim at the workload's shape, and the
// first (cold) transfer of fresh pairs.
func probeCore(lr *layerRun) error {
	w := lr.w
	k1, k2 := kernel.New("edge"), kernel.New("cloud")
	var shims []*core.Shim
	defer func() {
		for _, s := range shims {
			s.Close()
		}
	}()
	fn := func(k *kernel.Kernel, name string) (*core.Function, error) {
		s, f, err := newProbeFn(k, name)
		if err != nil {
			return nil, err
		}
		shims = append(shims, s)
		return f, nil
	}
	src, err := fn(k1, "src")
	if err != nil {
		return err
	}
	if _, err := src.CallPacked(guest.ExportProduce, uint64(w.payload)); err != nil {
		return err
	}
	// transfer runs one direct transfer of the given mechanism into the
	// given targets and returns what it delivered.
	transfer := func(hop string, dsts []*core.Function) ([]core.InboundRef, error) {
		switch hop {
		case hopKernel:
			ref, _, err := core.KernelSpaceTransfer(src, dsts[0], core.KernelOptions{})
			return []core.InboundRef{ref}, err
		case hopNetwork:
			ref, _, err := core.NetworkTransfer(src, dsts[0], core.NetworkOptions{Link: testbedLink()})
			return []core.InboundRef{ref}, err
		case hopMcast:
			refs, _, err := core.MulticastTransfer(src, dsts, core.MulticastOptions{})
			return refs, err
		default:
			return nil, fmt.Errorf("no direct transfer for hop %q", hop)
		}
	}
	release := func(dsts []*core.Function, refs []core.InboundRef) error {
		for i, ref := range refs {
			if err := dsts[i].Deallocate(ref.Ptr); err != nil {
				return err
			}
		}
		return nil
	}
	targets := func(hop, tag string) ([]*core.Function, error) {
		k, n := k1, 1
		if hop == hopNetwork {
			k = k2
		}
		if hop == hopMcast {
			n = w.fan
		}
		dsts := make([]*core.Function, n)
		for i := range dsts {
			if dsts[i], err = fn(k, fmt.Sprintf("%s-%s-%d", hop, tag, i)); err != nil {
				return nil, err
			}
		}
		return dsts, nil
	}

	var cold []float64
	for _, hop := range w.hops {
		// Fresh target shims have no channel to src yet: their first
		// transfer is the cold one. They are closed before the next is
		// measured, so their linear memories do not crowd the warm samples.
		for i := 0; i < probeMinIters; i++ {
			mark := len(shims)
			dsts, err := targets(hop, fmt.Sprintf("cold%d", i))
			if err != nil {
				return err
			}
			t0 := time.Now()
			refs, err := transfer(hop, dsts)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("cold %s transfer: %w", hop, err)
			}
			lr.track.record(lr.tr.newID(), "core.cold_transfer["+hop+"]", lr.root, lr.tr.nextOp.Add(1), t0, t1)
			if hop == w.hops[0] {
				cold = append(cold, float64(t1.Sub(t0))/1e3)
			}
			if err := release(dsts, refs); err != nil {
				return err
			}
			for _, s := range shims[mark:] {
				s.Close()
			}
			shims = shims[:mark]
		}
		dsts, err := targets(hop, "warm")
		if err != nil {
			return err
		}
		// One warm-up pass of unsampled transfers brings the channel, the
		// page pool and the targets' linear memories to their working size,
		// as a round's warm-up does.
		for i := 0; i < warmOps; i++ {
			refs, err := transfer(hop, dsts)
			if err != nil {
				return fmt.Errorf("warming %s transfer: %w", hop, err)
			}
			if err := release(dsts, refs); err != nil {
				return err
			}
		}
		runtime.GC()
		if err := lr.sample("core.transfer["+hop+"]", func(sm *sampler) error {
			for sm.next() {
				sm.start()
				refs, err := transfer(hop, dsts)
				sm.stop(1)
				if err != nil {
					return err
				}
				if err := release(dsts, refs); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	lr.m["core.cold_transfer_us"] = median(cold)
	return nil
}

// probeAPI times what the public API adds around the engine, on a small
// one-node deployment at 4 KiB: plan construction, Submit and Wait around a
// single node against the direct call, and Release.
func probeAPI(lr *layerRun) error {
	ctx := lr.ctx
	p := roadrunner.New(roadrunner.WithNodes("edge"))
	defer p.Close()
	fns := make([]*roadrunner.Function, 4)
	for i := range fns {
		f, err := p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("f%d", i), Node: "edge"})
		if err != nil {
			return err
		}
		fns[i] = f
	}
	a, b, c, d := fns[0], fns[1], fns[2], fns[3]
	const small = 4 << 10
	if err := a.Produce(small); err != nil {
		return err
	}
	var sink *roadrunner.Plan
	if err := lr.sample("api.plan_build", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			for i := 0; i < cheapBatch; i++ {
				pl := roadrunner.NewPlan()
				inv := pl.Invoke(a, b, small)
				pl.Xfer(b, c).From(inv)
				pl.Xfer(b, d).From(inv)
				sink = pl
			}
			sm.stop(cheapBatch)
		}
		return nil
	}); err != nil {
		return err
	}
	_ = sink
	release := &sampler{lr: lr, name: "api.release", parent: lr.root}
	if err := lr.sample("api.direct", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			ref, _, err := p.TransferCtx(ctx, a, b)
			sm.stop(1)
			if err != nil {
				return err
			}
			release.start()
			err = b.Release(ref)
			release.stop(1)
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := lr.sample("api.submit", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			pl := roadrunner.NewPlan()
			node := pl.Xfer(a, b)
			job, err := p.Submit(ctx, pl)
			if err != nil {
				return err
			}
			res, err := job.Wait(ctx)
			sm.stop(1)
			if err != nil {
				return err
			}
			if res.Err != nil {
				return res.Err
			}
			if err := b.Release(res.Node(node).Ref()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	lr.m["api.plan_build_ns"] = lr.ns["api.plan_build"]
	lr.m["api.submit_overhead_us"] = lr.us("api.submit") - lr.us("api.direct")
	lr.m["api.release_ns"] = median(release.perCall)
	return nil
}

// probeSerial times the codec the baselines pay and Roadrunner does not.
func probeSerial(lr *layerRun) error {
	n := min(lr.w.payload, baselineMaxBytes)
	records := []serial.Record{{Key: []byte("payload"), Value: guest.ReferenceProduce(n)}}
	var enc []byte
	if err := lr.sample("serial.encode", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			enc = serial.Encode(records)
			sm.stop(1)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := lr.sample("serial.decode", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			_, err := serial.Decode(enc)
			sm.stop(1)
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	lr.m["serial.encode_mb_s"] = lr.mbPerSec("serial.encode", n)
	lr.m["serial.decode_mb_s"] = lr.mbPerSec("serial.decode", n)
	return nil
}

// probeBaselines times the paper's two comparison systems at min(P, 1 MiB)
// on the op's first-hop placement. wasmedge_ratio compares cost per delivered
// byte, since the payloads and delivery counts differ.
func probeBaselines(lr *layerRun) error {
	w := lr.w
	n := min(w.payload, baselineMaxBytes)
	k1 := kernel.New("edge")
	k2, link := k1, netsim.DefaultLoopback()
	if w.hops[0] == hopNetwork {
		k2, link = kernel.New("cloud"), testbedLink()
	}
	env := baseline.TransferEnv{Link: link, Flows: 1}
	saved := lr.budget
	lr.budget = min(baselineBudget/2, 8*saved)
	defer func() { lr.budget = saved }()

	wsrc, err := baseline.NewWasmEdgeFunction("a", k1, guest.Module(), nil)
	if err != nil {
		return err
	}
	defer wsrc.Close()
	wdst, err := baseline.NewWasmEdgeFunction("b", k2, guest.Module(), nil)
	if err != nil {
		return err
	}
	defer wdst.Close()
	if err := wsrc.Produce(n); err != nil {
		return err
	}
	if err := lr.sample("baseline.wasmedge", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			ptr, _, _, err := wsrc.Transfer(wdst, env)
			sm.stop(1)
			if err != nil {
				return err
			}
			if err := wdst.Release(ptr); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	rsrc := baseline.NewRunCFunction("a", k1, baseline.ContainerImageBytes, nil)
	defer rsrc.Close()
	rdst := baseline.NewRunCFunction("b", k2, baseline.ContainerImageBytes, nil)
	defer rdst.Close()
	rsrc.Produce(n)
	if err := lr.sample("baseline.runc", func(sm *sampler) error {
		for sm.next() {
			sm.start()
			_, _, err := rsrc.Transfer(rdst, env)
			sm.stop(1)
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	lr.m["baseline.wasmedge_op_us"] = lr.us("baseline.wasmedge")
	lr.m["baseline.runc_op_us"] = lr.us("baseline.runc")
	lr.m["baseline.wasmedge_ratio"] = 0
	if op := lr.m["api.op_us"]; op > 0 {
		perByte := op / float64(w.payload*w.deliveries)
		lr.m["baseline.wasmedge_ratio"] = lr.us("baseline.wasmedge") / float64(n) / perByte
	}
	return nil
}
