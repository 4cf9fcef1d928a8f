package experiments

import (
	"context"
	"fmt"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/baseline"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
)

// paperLink reproduces the testbed network: 100 Mbps shaped bandwidth with a
// stable 1 ms RTT between the two nodes (§6.2).
func paperLink() *netsim.Link {
	return netsim.NewLink(100*netsim.Mbps, time.Millisecond)
}

// Fig8 regenerates the inter-node payload sweep (Fig. 8a–h): chained
// functions a→b on two nodes joined by the 100 Mbps edge–cloud link, across
// RoadRunner (Network), RunC and Wasmedge.
func Fig8(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{
		ID:     "fig8",
		Mode:   "inter-node",
		Title:  "Inter-node latency/throughput/CPU/RAM for varying payload sizes",
		XLabel: "size(MB)",
	}
	for _, sizeMB := range opts.SizesMB {
		n := sizeMB * MB
		pts, err := interNodePoints(float64(sizeMB), n, 1)
		if err != nil {
			return nil, fmt.Errorf("size %d MB: %w", sizeMB, err)
		}
		res.Points = append(res.Points, pts...)
	}
	res.Notes = append(res.Notes, fig8Headlines(res.Points)...)
	return res, nil
}

// interNodePoints measures one payload size across the three inter-node
// systems on fresh two-node deployments.
func interNodePoints(x float64, n, flows int) ([]Point, error) {
	var points []Point

	// RoadRunner (Network).
	{
		p := roadrunner.New(roadrunner.WithLink(100*roadrunner.Mbps, time.Millisecond))
		a, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: "edge"})
		if err != nil {
			return nil, err
		}
		b, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: "cloud"})
		if err != nil {
			return nil, err
		}
		if err := a.Produce(n); err != nil {
			return nil, err
		}
		if err := warmupRR(p, a, b); err != nil {
			return nil, err
		}
		ref, rep, err := p.TransferCtx(context.Background(), a, b, roadrunner.WithFlows(flows))
		if err != nil {
			return nil, err
		}
		if err := verifyChecksum(ref, n); err != nil {
			return nil, err
		}
		points = append(points, pointFrom(SysRRNetwork, x, rep))
		p.Close()
	}

	// RunC over the inter-node link.
	{
		k1, k2 := kernel.New("edge"), kernel.New("cloud")
		src := baseline.NewRunCFunction("a", k1, baseline.ContainerImageBytes, nil)
		dst := baseline.NewRunCFunction("b", k2, baseline.ContainerImageBytes, nil)
		src.Produce(n)
		if _, _, err := src.Transfer(dst, baseline.TransferEnv{Link: paperLink(), Flows: flows}); err != nil {
			return nil, err
		}
		body, rep, err := src.Transfer(dst, baseline.TransferEnv{Link: paperLink(), Flows: flows})
		if err != nil {
			return nil, err
		}
		if dst.Checksum(body) != guest.ReferenceProduceChecksum(n) {
			return nil, fmt.Errorf("runc payload corrupted")
		}
		points = append(points, pointFrom(SysRunC, x, rep))
		src.Close()
		dst.Close()
	}

	// WasmEdge over the inter-node link.
	{
		k1, k2 := kernel.New("edge"), kernel.New("cloud")
		src, err := baseline.NewWasmEdgeFunction("a", k1, guest.Module(), nil)
		if err != nil {
			return nil, err
		}
		dst, err := baseline.NewWasmEdgeFunction("b", k2, guest.Module(), nil)
		if err != nil {
			return nil, err
		}
		if err := src.Produce(n); err != nil {
			return nil, err
		}
		if wp, _, _, err := src.Transfer(dst, baseline.TransferEnv{Link: paperLink(), Flows: flows}); err != nil {
			return nil, err
		} else if err := dst.Release(wp); err != nil {
			return nil, err
		}
		ptr, m, rep, err := src.Transfer(dst, baseline.TransferEnv{Link: paperLink(), Flows: flows})
		if err != nil {
			return nil, err
		}
		sum, err := dst.Checksum(ptr, m)
		if err != nil {
			return nil, err
		}
		if sum != guest.ReferenceProduceChecksum(n) {
			return nil, fmt.Errorf("wasmedge payload corrupted")
		}
		points = append(points, pointFrom(SysWasmEdge, x, rep))
		src.Close()
		dst.Close()
	}

	return points, nil
}

func fig8Headlines(points []Point) []string {
	last := map[string]Point{}
	for _, p := range points {
		last[p.System] = p
	}
	var notes []string
	if rr, ok := last[SysRRNetwork]; ok {
		if w, ok := last[SysWasmEdge]; ok {
			notes = append(notes,
				headline("total latency", SysRRNetwork, SysWasmEdge, rr.Latency, w.Latency),
				headline("serialization", SysRRNetwork, SysWasmEdge, rr.SerLatency, w.SerLatency))
		}
		if r, ok := last[SysRunC]; ok {
			notes = append(notes,
				headline("total latency", SysRRNetwork, SysRunC, rr.Latency, r.Latency),
				headline("serialization", SysRRNetwork, SysRunC, rr.SerLatency, r.SerLatency))
		}
	}
	return notes
}
