// Tests for the staged data-plane pipeline: stage-scoped VM locking,
// overlapped source/target stages, streaming chains over shared interior
// functions, and the staged trace in absolute counts.
package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/core"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
)

// TestInteriorVMFreeDuringWireStage pins the pipeline's headline property:
// while a transfer's payload is in flight on the wire — egress done or
// draining, ingress gated — NEITHER endpoint VM lock is held, so the target
// VM accepts an unrelated transfer mid-flight.
func TestInteriorVMFreeDuringWireStage(t *testing.T) {
	kEdge, kCloud := kernel.New("edge"), kernel.New("cloud")
	sA := newShim(t, "sA", kEdge)
	sB := newShim(t, "sB", kCloud)
	sX := newShim(t, "sX", kCloud)
	fa := addFn(t, sA, "a")
	fb := addFn(t, sB, "b")
	fb2 := addFn(t, sB, "b2") // second function in the interior VM
	fx := addFn(t, sX, "x")

	const n = 256 << 10
	if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.CallPacked(guest.ExportProduce, uint64(n+128)); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	started := make(chan struct{})
	type result struct {
		ref core.InboundRef
		err error
	}
	wireRes := make(chan result, 1)
	go func() {
		ref, _, err := core.NetworkTransfer(fa, fb, core.NetworkOptions{
			Gates: &core.PipelineGates{BeforeIngress: func() {
				close(started)
				<-gate
			}},
		})
		wireRes <- result{ref, err}
	}()
	<-started

	// The a→b transfer is now held in its wire stage: payload queued in the
	// channel, ingress not yet started, no VM lock held. An unrelated
	// kernel-space transfer into the same target VM must complete.
	unrelated := make(chan result, 1)
	go func() {
		ref, _, err := core.KernelSpaceTransfer(fx, fb2, core.KernelOptions{})
		unrelated <- result{ref, err}
	}()
	select {
	case r := <-unrelated:
		if r.err != nil {
			t.Fatalf("unrelated transfer during wire stage: %v", r.err)
		}
		verifyDelivery(t, fb2, r.ref, n+128)
	case <-time.After(10 * time.Second):
		t.Fatal("unrelated transfer blocked: interior VM lock held during wire stage")
	}

	close(gate)
	r := <-wireRes
	if r.err != nil {
		t.Fatalf("gated transfer: %v", r.err)
	}
	verifyDelivery(t, fb, r.ref, n)
}

// TestConcurrentSharedInteriorChains is the stage-scoped-locking stress
// test: M streaming chains A_i → B → C_i → D_i run concurrently for several
// rounds, all of them sharing the interior function B. Each hop pins its
// input region (SourceRef), so set_output + locate are atomic with the
// egress and the chains stay linearizable. Asserts per-delivery checksum
// conservation, and that file-descriptor tables and the kernels' page pools
// return to their post-warmup baselines when the chains finish.
func TestConcurrentSharedInteriorChains(t *testing.T) {
	const (
		chains  = 4
		rounds  = 6
		payload = 96 << 10
	)
	kEdge, kCloud := kernel.New("edge"), kernel.New("cloud")
	sB := newShim(t, "sB", kEdge)
	fb := addFn(t, sB, "b")
	shims := []*core.Shim{sB}
	srcs := make([]*core.Function, chains)
	mids := make([]*core.Function, chains)
	sinks := make([]*core.Function, chains)
	for i := 0; i < chains; i++ {
		sA := newShim(t, fmt.Sprintf("sA%d", i), kEdge)
		sC := newShim(t, fmt.Sprintf("sC%d", i), kCloud)
		sD := newShim(t, fmt.Sprintf("sD%d", i), kCloud)
		shims = append(shims, sA, sC, sD)
		srcs[i] = addFn(t, sA, fmt.Sprintf("a%d", i))
		mids[i] = addFn(t, sC, fmt.Sprintf("c%d", i))
		sinks[i] = addFn(t, sD, fmt.Sprintf("d%d", i))
	}

	// One chain execution: produce at the head, kernel hop into the shared
	// B, network hop out of it, kernel hop to the sink. Returns the
	// per-function inbound regions so the round can release them.
	runChain := func(i, n int) (map[*core.Function]core.InboundRef, error) {
		regions := make(map[*core.Function]core.InboundRef, 3)
		if _, err := srcs[i].CallPacked(guest.ExportProduce, uint64(n)); err != nil {
			return regions, fmt.Errorf("produce: %w", err)
		}
		refB, _, err := core.KernelSpaceTransfer(srcs[i], fb, core.KernelOptions{})
		if err != nil {
			return regions, fmt.Errorf("hop a->B: %w", err)
		}
		regions[fb] = refB
		srcRefB := core.OutputRef{Ptr: refB.Ptr, Len: refB.Len}
		refC, _, err := core.NetworkTransfer(fb, mids[i], core.NetworkOptions{SourceRef: &srcRefB})
		if err != nil {
			return regions, fmt.Errorf("hop B->c: %w", err)
		}
		regions[mids[i]] = refC
		srcRefC := core.OutputRef{Ptr: refC.Ptr, Len: refC.Len}
		refD, _, err := core.KernelSpaceTransfer(mids[i], sinks[i], core.KernelOptions{SourceRef: &srcRefC})
		if err != nil {
			return regions, fmt.Errorf("hop c->d: %w", err)
		}
		regions[sinks[i]] = refD
		verifyDelivery(t, sinks[i], refD, n)
		return regions, nil
	}

	// Warmup round: establishes every pair's cached channel, so the FD
	// baseline below includes the persistent hoses.
	for i := 0; i < chains; i++ {
		regions, err := runChain(i, payload+i)
		if err != nil {
			t.Fatalf("warmup chain %d: %v", i, err)
		}
		releaseRound(t, regions, srcs[i])
	}
	fdBaseline := make([]int, len(shims))
	for i, s := range shims {
		fdBaseline[i] = s.Proc().NumFDs()
	}

	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		roundRegions := make([]map[*core.Function]core.InboundRef, chains)
		errs := make([]error, chains)
		for i := 0; i < chains; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Distinct payload sizes per chain, so a cross-delivered
				// payload can never produce the right checksum.
				roundRegions[i], errs[i] = runChain(i, payload+i)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d chain %d: %v", round, i, err)
			}
		}
		// Joined: no region is in flight, so every chain's regions go
		// back, in whatever order the chains landed in the shared B.
		for i := 0; i < chains; i++ {
			releaseRound(t, roundRegions[i], srcs[i])
		}
	}

	for i, s := range shims {
		if got := s.Proc().NumFDs(); got != fdBaseline[i] {
			t.Fatalf("shim %s holds %d FDs, baseline %d", s.Name(), got, fdBaseline[i])
		}
	}
	if res := kEdge.Pool().Resident() + kCloud.Pool().Resident(); res != 0 {
		t.Fatalf("%d resident kernel pool bytes leaked", res)
	}
}

// releaseRound returns one chain execution's regions to the guest
// allocators: the head's produce region plus each function's inbound
// region.
func releaseRound(t *testing.T, regions map[*core.Function]core.InboundRef, head *core.Function) {
	t.Helper()
	if out, err := head.Output(); err == nil {
		if err := head.Deallocate(out.Ptr); err != nil {
			t.Fatalf("release head: %v", err)
		}
	}
	for f, ref := range regions {
		if err := f.Deallocate(ref.Ptr); err != nil {
			t.Fatalf("release %s: %v", f.Name(), err)
		}
	}
}

// TestStagedTraceCounts pins the staged pipeline's syscall and copy volume
// on both unicast modes, cold and warm, for a 3 MiB payload over a 1 MiB
// hose. Kernel: socketpair + one write on the source, one receive on the
// target, each side copying the payload once across the kernel boundary.
// Network: the Algorithm 1 trace of TestAlgorithm1SyscallTrace, the target
// paying the one user-space copy.
func TestStagedTraceCounts(t *testing.T) {
	const n = 3 << 20
	type trace struct {
		srcSys, dstSys   int64
		srcCopy, dstCopy int64
	}
	for _, tc := range []struct {
		mode       string
		cold, warm trace
	}{
		{"kernel", trace{2, 1, n, n}, trace{1, 1, n, n}},
		{"network", trace{7, 7, 0, n}, trace{6, 6, 0, n}},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			network := tc.mode == "network"
			srcKernel := kernel.New("edge")
			dstKernel := srcKernel
			if network {
				dstKernel = kernel.New("cloud")
			}
			s1, err := core.NewShim(core.ShimConfig{
				Name: "s1", Workflow: wf, Kernel: srcKernel, Module: guest.Module(), DataHoseBytes: 1 << 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s1.Close)
			s2, err := core.NewShim(core.ShimConfig{
				Name: "s2", Workflow: wf, Kernel: dstKernel, Module: guest.Module(), DataHoseBytes: 1 << 20,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s2.Close)
			fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")
			if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
				t.Fatal(err)
			}
			// The rounds share one pair: cold establishes the channel, warm
			// reuses it, so they run in this order.
			for _, round := range []struct {
				name string
				want trace
			}{{"cold", tc.cold}, {"warm", tc.warm}} {
				t.Run(round.name, func(t *testing.T) {
					sb, db := s1.Account().Snapshot(), s2.Account().Snapshot()
					var ref core.InboundRef
					var err error
					if network {
						ref, _, err = core.NetworkTransfer(fa, fb, core.NetworkOptions{})
					} else {
						ref, _, err = core.KernelSpaceTransfer(fa, fb, core.KernelOptions{})
					}
					if err != nil {
						t.Fatal(err)
					}
					verifyDelivery(t, fb, ref, n)
					sd := s1.Account().Snapshot().Sub(sb)
					dd := s2.Account().Snapshot().Sub(db)
					got := trace{
						srcSys: sd.Syscalls, dstSys: dd.Syscalls,
						srcCopy: sd.TotalCopyBytes(), dstCopy: dd.TotalCopyBytes(),
					}
					if got != round.want {
						t.Fatalf("trace %+v, want %+v", got, round.want)
					}
				})
			}
		})
	}
}

// TestPipelineOverlapAttribution: a multi-chunk pipelined network transfer
// reports a positive Overlap component (the stages genuinely ran
// concurrently) and a critical-path latency below the summed component
// laps.
func TestPipelineOverlapAttribution(t *testing.T) {
	k1, k2 := kernel.New("edge"), kernel.New("cloud")
	s1, err := core.NewShim(core.ShimConfig{
		Name: "s1", Workflow: wf, Kernel: k1, Module: guest.Module(), DataHoseBytes: 256 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s1.Close)
	s2, err := core.NewShim(core.ShimConfig{
		Name: "s2", Workflow: wf, Kernel: k2, Module: guest.Module(), DataHoseBytes: 256 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")
	const n = 4 << 20 // 16 hose chunks
	if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	ref, rep, err := core.NetworkTransfer(fa, fb, core.NetworkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	verifyDelivery(t, fb, ref, n)
	if got := rep.Breakdown.Total(); got > rep.Breakdown.Setup+rep.Breakdown.Transfer+rep.Breakdown.WasmIO {
		t.Fatalf("critical path %v exceeds summed laps", got)
	}
	if rep.Breakdown.Overlap <= 0 {
		t.Fatalf("pipelined multi-chunk transfer reported no overlap (%v)", rep.Breakdown.Overlap)
	}
}

// A source stage that fails before it announces its output — here a pinned
// source region beyond the guest's linear memory, which the read view
// refuses — dispatches no target stage and never touches the channel: the
// transfer returns that cause, descriptors, pool pages and residency stay at
// baseline, and the pair's cached channel stays warm, so the next transfer
// is a cache hit.
func TestFailureBeforeAnnounceKeepsChannelWarm(t *testing.T) {
	const n = 1 << 20
	for _, mode := range []string{"kernel", "network"} {
		t.Run(mode, func(t *testing.T) {
			k1, k2 := kernel.New("edge"), kernel.New("cloud")
			if mode == "kernel" {
				k2 = k1
			}
			s1, s2 := newShim(t, "s1", k1), newShim(t, "s2", k2)
			fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")
			out, err := fa.CallPacked(guest.ExportProduce, n)
			if err != nil {
				t.Fatal(err)
			}
			gates := &core.PipelineGates{}
			transfer := func(src core.OutputRef) (core.InboundRef, error) {
				if mode == "kernel" {
					ref, _, err := core.KernelSpaceTransfer(fa, fb, core.KernelOptions{SourceRef: &src, Gates: gates})
					return ref, err
				}
				ref, _, err := core.NetworkTransfer(fa, fb, core.NetworkOptions{SourceRef: &src, Gates: gates})
				return ref, err
			}
			deliver := func() {
				t.Helper()
				ref, err := transfer(out)
				if err != nil {
					t.Fatal(err)
				}
				verifyDelivery(t, fb, ref, n)
				if err := fb.Deallocate(ref.Ptr); err != nil {
					t.Fatal(err)
				}
			}
			deliver() // caches the pair's channel

			fds := [2]int{s1.Proc().NumFDs(), s2.Proc().NumFDs()}
			resident := [2]int64{s1.Account().Snapshot().ResidentBytes, s2.Account().Snapshot().ResidentBytes}
			gates.BeforeIngress = func() { t.Error("a target stage ran for a source that never announced") }
			_, err = transfer(core.OutputRef{Ptr: 1 << 31, Len: 4096})
			gates.BeforeIngress = nil
			if !errors.Is(err, wasm.TrapOutOfBounds) {
				t.Fatalf("error = %v, want the source's out-of-bounds view", err)
			}
			if res := k1.Pool().Resident() + k2.Pool().Resident(); res != 0 {
				t.Fatalf("%d pool bytes resident", res)
			}
			if got := [2]int64{s1.Account().Snapshot().ResidentBytes, s2.Account().Snapshot().ResidentBytes}; got != resident {
				t.Fatalf("residency = %v, want %v", got, resident)
			}

			stats := s1.ChannelStats()
			deliver()
			if got := s1.ChannelStats(); got.Hits != stats.Hits+1 || got.Misses != stats.Misses {
				t.Fatalf("channel stats %+v after the failure, %+v after one more transfer: want a hit", stats, got)
			}
			if got := [2]int{s1.Proc().NumFDs(), s2.Proc().NumFDs()}; got != fds {
				t.Fatalf("FDs = %v, want %v", got, fds)
			}
		})
	}
}
