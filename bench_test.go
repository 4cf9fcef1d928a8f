// Benchmarks regenerating the paper's evaluation artifacts as testing.B
// targets, one group per table/figure, plus the ablation benches called out
// in DESIGN.md §5. The per-op metric corresponds to one data transfer (or
// one cold start for Fig. 2a). Payloads are bench-scaled; use
// cmd/roadrunner-bench -full for the paper's axes.
package roadrunner_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/baseline"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/core"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
)

const benchPayload = 1 << 20 // 1 MiB per transfer

// ---- Fig. 2a: cold start -----------------------------------------------------

func BenchmarkFig2aColdStartContainer(b *testing.B) {
	k := kernel.New("node")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := baseline.NewRunCFunction("c", k, baseline.ContainerImageBytes, nil)
		if f.ColdStart() <= 0 {
			b.Fatal("no cold start")
		}
		f.Close()
	}
}

func BenchmarkFig2aColdStartWasm(b *testing.B) {
	k := kernel.New("node")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := baseline.NewWasmEdgeFunction("w", k, guest.Module(), nil)
		if err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

// ---- Fig. 2b / Fig. 7: intra-node transfer paths ------------------------------

func BenchmarkFig7RoadrunnerUserSpace(b *testing.B) {
	p := roadrunner.New(roadrunner.WithNodes("node"))
	defer p.Close()
	a, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: "node"})
	if err != nil {
		b.Fatal(err)
	}
	dst, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: "node", ShareVMWith: a})
	if err != nil {
		b.Fatal(err)
	}
	if err := a.Produce(benchPayload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, _, err := p.TransferCtx(bg, a, dst)
		if err != nil {
			b.Fatal(err)
		}
		if err := dst.Release(ref); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7RoadrunnerKernelSpace(b *testing.B) {
	p := roadrunner.New(roadrunner.WithNodes("node"))
	defer p.Close()
	a, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: "node"})
	if err != nil {
		b.Fatal(err)
	}
	dst, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: "node"})
	if err != nil {
		b.Fatal(err)
	}
	if err := a.Produce(benchPayload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, _, err := p.TransferCtx(bg, a, dst)
		if err != nil {
			b.Fatal(err)
		}
		if err := dst.Release(ref); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7RunC(b *testing.B) {
	k := kernel.New("node")
	src := baseline.NewRunCFunction("a", k, baseline.ContainerImageBytes, nil)
	dst := baseline.NewRunCFunction("b", k, baseline.ContainerImageBytes, nil)
	defer src.Close()
	defer dst.Close()
	src.Produce(benchPayload)
	env := baseline.TransferEnv{Link: netsim.DefaultLoopback(), Flows: 1}
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := src.Transfer(dst, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7WasmEdge(b *testing.B) {
	k := kernel.New("node")
	src, err := baseline.NewWasmEdgeFunction("a", k, guest.Module(), nil)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := baseline.NewWasmEdgeFunction("b", k, guest.Module(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	defer dst.Close()
	if err := src.Produce(benchPayload); err != nil {
		b.Fatal(err)
	}
	env := baseline.TransferEnv{Link: netsim.DefaultLoopback(), Flows: 1}
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, _, _, err := src.Transfer(dst, env)
		if err != nil {
			b.Fatal(err)
		}
		if err := dst.Release(ptr); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 6 / Fig. 8: inter-node transfer paths --------------------------------
// Modeled network time is excluded from the hot loop (it is an analytic
// quantity); these benches measure the CPU-side cost of each path.

func BenchmarkFig8RoadrunnerNetwork(b *testing.B) {
	p := roadrunner.New()
	defer p.Close()
	a, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: "edge"})
	if err != nil {
		b.Fatal(err)
	}
	dst, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: "cloud"})
	if err != nil {
		b.Fatal(err)
	}
	if err := a.Produce(benchPayload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, _, err := p.TransferCtx(bg, a, dst)
		if err != nil {
			b.Fatal(err)
		}
		if err := dst.Release(ref); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8RunC(b *testing.B) {
	k1, k2 := kernel.New("edge"), kernel.New("cloud")
	src := baseline.NewRunCFunction("a", k1, baseline.ContainerImageBytes, nil)
	dst := baseline.NewRunCFunction("b", k2, baseline.ContainerImageBytes, nil)
	defer src.Close()
	defer dst.Close()
	src.Produce(benchPayload)
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := src.Transfer(dst, baseline.TransferEnv{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8WasmEdge(b *testing.B) {
	k1, k2 := kernel.New("edge"), kernel.New("cloud")
	src, err := baseline.NewWasmEdgeFunction("a", k1, guest.Module(), nil)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := baseline.NewWasmEdgeFunction("b", k2, guest.Module(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	defer dst.Close()
	if err := src.Produce(benchPayload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, _, _, err := src.Transfer(dst, baseline.TransferEnv{})
		if err != nil {
			b.Fatal(err)
		}
		if err := dst.Release(ptr); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig. 9 / Fig. 10: fan-out ---------------------------------------------------

func benchmarkFanout(b *testing.B, degree int, remote bool) {
	p := roadrunner.New(roadrunner.WithLink(100*roadrunner.Mbps, time.Millisecond))
	defer p.Close()
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	if err != nil {
		b.Fatal(err)
	}
	node := "edge"
	if remote {
		node = "cloud"
	}
	targets := make([]*roadrunner.Function, degree)
	for i := range targets {
		if targets[i], err = p.Deploy(roadrunner.FunctionSpec{
			Name: fmt.Sprintf("t%d", i), Node: node,
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := src.Produce(benchPayload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(degree) * benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, dst := range targets {
			ref, _, err := p.TransferCtx(bg, src, dst, roadrunner.WithFlows(degree))
			if err != nil {
				b.Fatal(err)
			}
			if err := dst.Release(ref); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig9FanoutIntra8(b *testing.B)  { benchmarkFanout(b, 8, false) }
func BenchmarkFig10FanoutInter8(b *testing.B) { benchmarkFanout(b, 8, true) }

// ---- Ablations (DESIGN.md §5) ------------------------------------------------------

// newNetworkPair builds a two-node Roadrunner deployment at the core layer,
// where the ablation switches live.
func newNetworkPair(b *testing.B) (*core.Function, *core.Function, func()) {
	b.Helper()
	k1, k2 := kernel.New("edge"), kernel.New("cloud")
	wf := core.Workflow{Name: "bench", Tenant: "bench"}
	s1, err := core.NewShim(core.ShimConfig{Name: "s1", Workflow: wf, Kernel: k1, Module: guest.Module()})
	if err != nil {
		b.Fatal(err)
	}
	s2, err := core.NewShim(core.ShimConfig{Name: "s2", Workflow: wf, Kernel: k2, Module: guest.Module()})
	if err != nil {
		b.Fatal(err)
	}
	fa, err := s1.AddFunction("a")
	if err != nil {
		b.Fatal(err)
	}
	fb, err := s2.AddFunction("b")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fa.CallPacked(guest.ExportProduce, uint64(benchPayload)); err != nil {
		b.Fatal(err)
	}
	return fa, fb, func() { s1.Close(); s2.Close() }
}

func benchNetworkTransfer(b *testing.B, opts core.NetworkOptions) {
	fa, fb, cleanup := newNetworkPair(b)
	defer cleanup()
	b.SetBytes(benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, _, err := core.NetworkTransfer(fa, fb, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := fb.Deallocate(ref.Ptr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationZeroCopyHose vs BenchmarkAblationCopyHose quantify the
// near-zero-copy win: identical path, page-reference movement vs plain
// write/read copies.
func BenchmarkAblationZeroCopyHose(b *testing.B) {
	benchNetworkTransfer(b, core.NetworkOptions{})
}

func BenchmarkAblationCopyHose(b *testing.B) {
	benchNetworkTransfer(b, core.NetworkOptions{ForceCopyPath: true})
}

// BenchmarkAblationSerializeFirst re-enables the in-guest codec on
// Roadrunner's network path, quantifying the serialization-free win.
func BenchmarkAblationSerializeFirst(b *testing.B) {
	benchNetworkTransfer(b, core.NetworkOptions{SerializeFirst: true})
}

// BenchmarkAblationWASIStaging quantifies the WASI staging copy's share of
// the WasmEdge baseline (DisableStagingCopy removes it).
func BenchmarkAblationWASIStaging(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "staging-on"
		if disable {
			name = "staging-off"
		}
		b.Run(name, func(b *testing.B) {
			k := kernel.New("node")
			src, err := baseline.NewWasmEdgeFunction("a", k, guest.Module(), nil)
			if err != nil {
				b.Fatal(err)
			}
			dst, err := baseline.NewWasmEdgeFunction("b", k, guest.Module(), nil)
			if err != nil {
				b.Fatal(err)
			}
			defer src.Close()
			defer dst.Close()
			src.WASI().DisableStagingCopy = disable
			dst.WASI().DisableStagingCopy = disable
			if err := src.Produce(benchPayload); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(benchPayload)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ptr, _, _, err := src.Transfer(dst, baseline.TransferEnv{})
				if err != nil {
					b.Fatal(err)
				}
				if err := dst.Release(ptr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- End-to-end workflow benches ----------------------------------------------------

func BenchmarkChainThreeModes(b *testing.B) {
	p := roadrunner.New()
	defer p.Close()
	a, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: "edge"})
	if err != nil {
		b.Fatal(err)
	}
	b2, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: "edge", ShareVMWith: a})
	if err != nil {
		b.Fatal(err)
	}
	c, err := p.Deploy(roadrunner.FunctionSpec{Name: "c", Node: "edge"})
	if err != nil {
		b.Fatal(err)
	}
	d, err := p.Deploy(roadrunner.FunctionSpec{Name: "d", Node: "cloud"})
	if err != nil {
		b.Fatal(err)
	}
	const n = 256 << 10
	b.SetBytes(3 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.ChainCtx(bg, n, []*roadrunner.Function{a, b2, c, d}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Concurrent engine ---------------------------------------------------------------

// benchmarkPairTransfers moves b.N kernel-space transfers across 8 disjoint
// function pairs, either back-to-back on one goroutine or fanned out with
// one goroutine per pair. Both variants do identical work, so the ns/op
// ratio is the aggregate-throughput win of the concurrent engine.
func benchmarkPairTransfers(b *testing.B, concurrent bool, topts ...roadrunner.TransferOption) {
	const pairs = 8
	const payload = 256 << 10
	p := roadrunner.New(roadrunner.WithNodes("node"))
	defer p.Close()
	srcs := make([]*roadrunner.Function, pairs)
	dsts := make([]*roadrunner.Function, pairs)
	for i := 0; i < pairs; i++ {
		var err error
		if srcs[i], err = p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("s%d", i), Node: "node"}); err != nil {
			b.Fatal(err)
		}
		if dsts[i], err = p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("d%d", i), Node: "node"}); err != nil {
			b.Fatal(err)
		}
		if err := srcs[i].Produce(payload); err != nil {
			b.Fatal(err)
		}
	}
	transfer := func(i int) {
		ref, _, err := p.TransferCtx(bg, srcs[i], dsts[i], topts...)
		if err != nil {
			b.Error(err)
			return
		}
		if err := dsts[i].Release(ref); err != nil {
			b.Error(err)
		}
	}
	b.SetBytes(payload)
	b.ResetTimer()
	if concurrent {
		var wg sync.WaitGroup
		for i := 0; i < pairs; i++ {
			iters := b.N / pairs
			if i < b.N%pairs {
				iters++
			}
			wg.Add(1)
			go func(i, iters int) {
				defer wg.Done()
				for j := 0; j < iters; j++ {
					transfer(i)
				}
			}(i, iters)
		}
		wg.Wait()
	} else {
		for i := 0; i < b.N; i++ {
			transfer(i % pairs)
		}
	}
}

// BenchmarkConcurrentTransfers contrasts sequential and concurrent
// execution of the same transfer population; on ≥4 cores the concurrent
// variant exceeds 2× the sequential aggregate throughput.
func BenchmarkConcurrentTransfers(b *testing.B) {
	b.Run("sequential", func(b *testing.B) { benchmarkPairTransfers(b, false) })
	b.Run("concurrent", func(b *testing.B) { benchmarkPairTransfers(b, true) })
}

// benchmarkChannelChurn is the BenchmarkConcurrentTransfers population
// shifted to where the control plane matters: small payloads over the
// network path, 8 disjoint cross-node pairs driven concurrently. Cold runs
// rebuild the connection and both hose pipes around every transfer; warm
// runs reuse the pairs' cached channels.
func benchmarkChannelChurn(b *testing.B, topts ...roadrunner.TransferOption) {
	const pairs = 8
	const payload = 4 << 10
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"))
	defer p.Close()
	srcs := make([]*roadrunner.Function, pairs)
	dsts := make([]*roadrunner.Function, pairs)
	for i := 0; i < pairs; i++ {
		var err error
		if srcs[i], err = p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("s%d", i), Node: "edge"}); err != nil {
			b.Fatal(err)
		}
		if dsts[i], err = p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("d%d", i), Node: "cloud"}); err != nil {
			b.Fatal(err)
		}
		if err := srcs[i].Produce(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(payload)
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < pairs; i++ {
		iters := b.N / pairs
		if i < b.N%pairs {
			iters++
		}
		wg.Add(1)
		go func(i, iters int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				ref, _, err := p.TransferCtx(bg, srcs[i], dsts[i], topts...)
				if err != nil {
					b.Error(err)
					return
				}
				if err := dsts[i].Release(ref); err != nil {
					b.Error(err)
					return
				}
			}
		}(i, iters)
	}
	wg.Wait()
}

// BenchmarkChannelCache contrasts the same concurrent transfer population
// with the channel cache on (warm: channels established once, reused by
// every later transfer) and off (cold: per-call establishment and
// teardown). The warm/cold ns/op ratio is the cache's aggregate-throughput
// win.
func BenchmarkChannelCache(b *testing.B) {
	b.Run("warm", func(b *testing.B) { benchmarkChannelChurn(b) })
	b.Run("cold", func(b *testing.B) { benchmarkChannelChurn(b, roadrunner.WithChannelCache(false)) })
}

// benchmarkChain drives a 3-hop chain a(edge) → b(cloud) → c(edge) →
// d(cloud) — three network hops, each payload crossing the hose in 8
// chunks — in either execution regime. Wall ns/op measures the host's CPU
// cost; the reported modeledMB/s metric is the chain's aggregate throughput
// on the modeled testbed (critical-path latency, overlap-aware), which is
// what the pipelined-vs-phase-locked comparison pins: identical syscalls
// and copies, but the staged pipeline hides each hop's endpoint stages
// behind its wire and peer stages.
func benchmarkChain(b *testing.B, phaseLocked bool) {
	p := roadrunner.New(
		roadrunner.WithLink(100*roadrunner.Gbps, 10*time.Microsecond),
		roadrunner.WithDataHoseSize(128<<10),
	)
	defer p.Close()
	fns := make([]*roadrunner.Function, 4)
	for i := range fns {
		node := "edge"
		if i%2 == 1 {
			node = "cloud"
		}
		var err error
		if fns[i], err = p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("f%d", i), Node: node}); err != nil {
			b.Fatal(err)
		}
	}
	var opts []roadrunner.TransferOption
	if phaseLocked {
		opts = append(opts, roadrunner.WithPhaseLocked(true))
	}
	const n = 1 << 20
	const hops = 3
	b.SetBytes(hops * n)
	var modeled time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, rep, err := p.ChainCtx(bg, n, fns, opts...)
		if err != nil {
			b.Fatal(err)
		}
		modeled += rep.Latency()
		// Release every hop's region so linear memory stays flat: after a
		// hop, an interior function's current output IS its inbound region
		// (the chain re-registered it), so one release per function frees
		// the whole execution.
		if err := fns[len(fns)-1].Release(ref); err != nil {
			b.Fatal(err)
		}
		for _, f := range fns[:len(fns)-1] {
			out, err := f.Output()
			if err != nil {
				b.Fatal(err)
			}
			if err := f.Release(out); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if modeled > 0 {
		b.ReportMetric(float64(b.N)*float64(hops*n)/modeled.Seconds()/1e6, "modeledMB/s")
	}
}

// BenchmarkPipelinedChain contrasts the staged pipeline against the
// phase-locked ablation on a 3-hop chain. The modeledMB/s ratio is the
// pipeline's aggregate-throughput win (≥25% expected: each hop's source
// egress, wire and target ingress overlap chunk-by-chunk instead of
// executing strictly in sequence).
func BenchmarkPipelinedChain(b *testing.B) {
	b.Run("pipelined", func(b *testing.B) { benchmarkChain(b, false) })
	b.Run("phase-locked", func(b *testing.B) { benchmarkChain(b, true) })
}

// BenchmarkMulticast8 vs BenchmarkFig10FanoutInter8: the tee(2)-based
// multicast extension amortizes the source pipeline across targets.
func BenchmarkMulticast8(b *testing.B) {
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"))
	defer p.Close()
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	if err != nil {
		b.Fatal(err)
	}
	targets := make([]*roadrunner.Function, 8)
	for i := range targets {
		if targets[i], err = p.Deploy(roadrunner.FunctionSpec{
			Name: fmt.Sprintf("t%d", i), Node: "cloud",
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := src.Produce(benchPayload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(8 * benchPayload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refs, _, err := p.MulticastCtx(bg, src, targets)
		if err != nil {
			b.Fatal(err)
		}
		for j, dst := range targets {
			if err := dst.Release(refs[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- Plan/Submit plane -------------------------------------------------------

// BenchmarkPlanSubmit compares one kernel-space transfer issued two ways:
// direct (TransferCtx: the node's check and body on the calling goroutine)
// and via the explicit Plan builder + Submit + Wait (the DAG plane,
// pool-dispatched). The acceptance bar is Plan-submitted singles within a
// few percent of direct — the plane must add no hot-path overhead beyond
// its bookkeeping allocations.
func BenchmarkPlanSubmit(b *testing.B) {
	build := func(b *testing.B) (*roadrunner.Platform, *roadrunner.Function, *roadrunner.Function) {
		p := roadrunner.New(roadrunner.WithNodes("node"))
		b.Cleanup(p.Close)
		src, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: "node"})
		if err != nil {
			b.Fatal(err)
		}
		dst, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: "node"})
		if err != nil {
			b.Fatal(err)
		}
		if err := src.Produce(benchPayload); err != nil {
			b.Fatal(err)
		}
		return p, src, dst
	}
	b.Run("direct", func(b *testing.B) {
		p, src, dst := build(b)
		b.SetBytes(benchPayload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ref, _, err := p.TransferCtx(bg, src, dst)
			if err != nil {
				b.Fatal(err)
			}
			if err := dst.Release(ref); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("submit", func(b *testing.B) {
		p, src, dst := build(b)
		ctx := context.Background()
		b.SetBytes(benchPayload)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pl := roadrunner.NewPlan()
			node := pl.Xfer(src, dst)
			job, err := p.Submit(ctx, pl)
			if err != nil {
				b.Fatal(err)
			}
			res, err := job.Wait(ctx)
			if err != nil {
				b.Fatal(err)
			}
			nr := res.Node(node)
			if nr.Err != nil {
				b.Fatal(nr.Err)
			}
			if err := dst.Release(nr.Ref()); err != nil {
				b.Fatal(err)
			}
		}
	})
}
