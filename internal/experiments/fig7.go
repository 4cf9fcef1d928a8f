package experiments

import (
	"context"
	"fmt"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/baseline"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
)

// Fig7 regenerates the intra-node payload sweep (Fig. 7a–h): two chained
// functions a→b on one node exchanging payloads of increasing size, across
// RoadRunner (User space), RoadRunner (Kernel space), RunC and Wasmedge.
func Fig7(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{
		ID:     "fig7",
		Mode:   "intra-node",
		Title:  "Intra-node latency/throughput/CPU/RAM for varying payload sizes",
		XLabel: "size(MB)",
	}

	for _, sizeMB := range opts.SizesMB {
		n := sizeMB * MB
		for run := 0; run < opts.Runs; run++ {
			pts, err := intraNodePoints(float64(sizeMB), n)
			if err != nil {
				return nil, fmt.Errorf("size %d MB: %w", sizeMB, err)
			}
			if run == 0 {
				res.Points = append(res.Points, pts...)
			} else {
				base := len(res.Points) - len(pts)
				for i, p := range pts {
					res.Points[base+i] = averagePoints([]Point{res.Points[base+i], p})
				}
			}
		}
	}
	res.Notes = append(res.Notes, fig7Headlines(res.Points)...)
	return res, nil
}

// intraNodePoints measures one payload size across the four intra-node
// systems, each on a fresh deployment.
func intraNodePoints(xMB float64, n int) ([]Point, error) {
	var points []Point

	// RoadRunner (User space): both functions in one Wasm VM.
	{
		p := roadrunner.New(roadrunner.WithNodes("node"))
		a, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: "node"})
		if err != nil {
			return nil, err
		}
		b, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: "node", ShareVMWith: a})
		if err != nil {
			return nil, err
		}
		if err := a.Produce(n); err != nil {
			return nil, err
		}
		if err := warmupRR(p, a, b); err != nil {
			return nil, err
		}
		ref, rep, err := p.TransferCtx(context.Background(), a, b)
		if err != nil {
			return nil, err
		}
		if err := verifyChecksum(ref, n); err != nil {
			return nil, err
		}
		points = append(points, pointFrom(SysRRUser, xMB, rep))
		p.Close()
	}

	// RoadRunner (Kernel space): two sandboxes, one node.
	{
		p := roadrunner.New(roadrunner.WithNodes("node"))
		a, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: "node"})
		if err != nil {
			return nil, err
		}
		b, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: "node"})
		if err != nil {
			return nil, err
		}
		if err := a.Produce(n); err != nil {
			return nil, err
		}
		if err := warmupRR(p, a, b); err != nil {
			return nil, err
		}
		ref, rep, err := p.TransferCtx(context.Background(), a, b)
		if err != nil {
			return nil, err
		}
		if err := verifyChecksum(ref, n); err != nil {
			return nil, err
		}
		points = append(points, pointFrom(SysRRKernel, xMB, rep))
		p.Close()
	}

	// RunC: containers over loopback HTTP.
	{
		k := kernel.New("node")
		src := baseline.NewRunCFunction("a", k, baseline.ContainerImageBytes, nil)
		dst := baseline.NewRunCFunction("b", k, baseline.ContainerImageBytes, nil)
		src.Produce(n)
		if _, _, err := src.Transfer(dst, baseline.TransferEnv{Link: netsim.DefaultLoopback(), Flows: 1}); err != nil {
			return nil, err
		}
		body, rep, err := src.Transfer(dst, baseline.TransferEnv{Link: netsim.DefaultLoopback(), Flows: 1})
		if err != nil {
			return nil, err
		}
		if dst.Checksum(body) != guest.ReferenceProduceChecksum(n) {
			return nil, fmt.Errorf("runc payload corrupted at %d bytes", n)
		}
		points = append(points, pointFrom(SysRunC, xMB, rep))
		src.Close()
		dst.Close()
	}

	// WasmEdge: Wasm sandboxes over loopback HTTP through WASI.
	{
		k := kernel.New("node")
		src, err := baseline.NewWasmEdgeFunction("a", k, guest.Module(), nil)
		if err != nil {
			return nil, err
		}
		dst, err := baseline.NewWasmEdgeFunction("b", k, guest.Module(), nil)
		if err != nil {
			return nil, err
		}
		if err := src.Produce(n); err != nil {
			return nil, err
		}
		if wp, _, _, err := src.Transfer(dst, baseline.TransferEnv{Link: netsim.DefaultLoopback(), Flows: 1}); err != nil {
			return nil, err
		} else if err := dst.Release(wp); err != nil {
			return nil, err
		}
		ptr, m, rep, err := src.Transfer(dst, baseline.TransferEnv{Link: netsim.DefaultLoopback(), Flows: 1})
		if err != nil {
			return nil, err
		}
		sum, err := dst.Checksum(ptr, m)
		if err != nil {
			return nil, err
		}
		if sum != guest.ReferenceProduceChecksum(n) {
			return nil, fmt.Errorf("wasmedge payload corrupted at %d bytes", n)
		}
		points = append(points, pointFrom(SysWasmEdge, xMB, rep))
		src.Close()
		dst.Close()
	}

	return points, nil
}

func verifyChecksum(ref roadrunner.DataRef, n int) error {
	sum, err := ref.Instance().Checksum(ref)
	if err != nil {
		return err
	}
	if sum != roadrunner.ExpectedChecksum(n) {
		return fmt.Errorf("payload corrupted at %d bytes", n)
	}
	return nil
}

// fig7Headlines extracts the paper's §6.3 intra-node claims from the
// measured points (largest size).
func fig7Headlines(points []Point) []string {
	last := map[string]Point{}
	for _, p := range points {
		last[p.System] = p // points are ordered by size; keep the largest
	}
	var notes []string
	if u, ok := last[SysRRUser]; ok {
		if w, ok := last[SysWasmEdge]; ok {
			notes = append(notes, headline("total latency", SysRRUser, SysWasmEdge, u.Latency, w.Latency))
		}
		if r, ok := last[SysRunC]; ok {
			notes = append(notes, headline("total latency", SysRRUser, SysRunC, u.Latency, r.Latency))
		}
	}
	if k, ok := last[SysRRKernel]; ok {
		if w, ok := last[SysWasmEdge]; ok {
			notes = append(notes, headline("total latency", SysRRKernel, SysWasmEdge, k.Latency, w.Latency))
			notes = append(notes, headline("serialization", SysRRKernel, SysWasmEdge, k.SerLatency, w.SerLatency))
		}
	}
	return notes
}

// warmupRR performs one untimed transfer so first-touch costs (linear-memory
// growth, page-pool population) do not pollute the measured run — the
// equivalent of the paper's repeated-run methodology (§6.2: 10 runs, mean).
func warmupRR(p *roadrunner.Platform, a, b *roadrunner.Function) error {
	ref, _, err := p.TransferCtx(context.Background(), a, b)
	if err != nil {
		return err
	}
	return b.Release(ref)
}
