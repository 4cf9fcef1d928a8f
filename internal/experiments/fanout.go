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

// flatRep is a system-neutral view of one transfer, used to aggregate
// fan-out measurements from both the public API and the baselines.
type flatRep struct {
	latency   time.Duration
	serLat    time.Duration
	network   time.Duration
	userCPU   time.Duration
	kernelCPU time.Duration
	peak      int64
}

func flatFrom(rep roadrunner.Report) flatRep {
	return flatRep{
		latency:   rep.Latency(),
		serLat:    rep.Breakdown.Serialization + rep.Breakdown.WasmIO,
		network:   rep.Breakdown.Network,
		userCPU:   rep.Usage.UserCPU,
		kernelCPU: rep.Usage.KernelCPU,
		peak:      rep.Usage.PeakResident,
	}
}

// fanoutPoint folds the per-target reports of one fan-out invocation into a
// figure point. The CPU-side work of the transfers executes sequentially on
// the source node while the modeled flows share the link concurrently, so
// the makespan is Σ(cpu-side latency) + max(per-flow network time); the
// fluid model already accounts for bandwidth sharing in each flow's time.
func fanoutPoint(system string, degree int, reps []flatRep) Point {
	var (
		cpuSide time.Duration
		maxNet  time.Duration
		serSum  time.Duration
		userCPU time.Duration
		kernCPU time.Duration
		peak    int64
	)
	for _, r := range reps {
		cpuSide += r.latency - r.network
		if r.network > maxNet {
			maxNet = r.network
		}
		serSum += r.serLat
		userCPU += r.userCPU
		kernCPU += r.kernelCPU
		if r.peak > peak {
			peak = r.peak
		}
	}
	wall := cpuSide + maxNet
	p := Point{
		System:     system,
		X:          float64(degree),
		Latency:    wall / time.Duration(degree), // mean per-transfer latency
		SerLatency: serSum / time.Duration(degree),
		RAMMB:      float64(peak) / MB,
	}
	if wall > 0 {
		p.RPS = float64(degree) * float64(time.Second) / float64(wall)
		p.CPUUser = float64(userCPU) / float64(wall) * 100
		p.CPUKernel = float64(kernCPU) / float64(wall) * 100
		p.CPUTotal = p.CPUUser + p.CPUKernel
	}
	if serSum > 0 {
		p.SerRPS = float64(degree) * float64(time.Second) / float64(serSum)
	}
	return p
}

// Fig9 regenerates the intra-node fan-out study (Fig. 9a–h): a source
// function delivering one payload to an increasing number of targets on the
// same node, across all four intra-node systems.
func Fig9(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	n := opts.FanoutPayloadMB * MB
	res := &Result{
		ID:     "fig9",
		Mode:   "fanout-intra",
		Title:  fmt.Sprintf("Intra-node fan-out, %d MB per transfer", opts.FanoutPayloadMB),
		XLabel: "degree",
	}
	for _, degree := range opts.FanoutDegrees {
		pts, err := intraFanoutPoints(degree, n)
		if err != nil {
			return nil, fmt.Errorf("degree %d: %w", degree, err)
		}
		res.Points = append(res.Points, pts...)
	}
	return res, nil
}

func intraFanoutPoints(degree, n int) ([]Point, error) {
	var points []Point

	// RoadRunner (User space): source + targets in one Wasm VM.
	{
		p := roadrunner.New(roadrunner.WithNodes("node"))
		src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "node"})
		if err != nil {
			return nil, err
		}
		targets := make([]*roadrunner.Function, degree)
		for i := range targets {
			if targets[i], err = p.Deploy(roadrunner.FunctionSpec{
				Name: fmt.Sprintf("t%d", i), Node: "node", ShareVMWith: src,
			}); err != nil {
				return nil, err
			}
		}
		_, reports, err := p.FanoutCtx(context.Background(), src, targets, n)
		if err != nil {
			return nil, err
		}
		flats := make([]flatRep, len(reports))
		for i, r := range reports {
			flats[i] = flatFrom(r)
		}
		points = append(points, fanoutPoint(SysRRUser, degree, flats))
		p.Close()
	}

	// RoadRunner (Kernel space): source + targets in separate sandboxes.
	{
		p := roadrunner.New(roadrunner.WithNodes("node"))
		src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "node"})
		if err != nil {
			return nil, err
		}
		targets := make([]*roadrunner.Function, degree)
		for i := range targets {
			if targets[i], err = p.Deploy(roadrunner.FunctionSpec{
				Name: fmt.Sprintf("t%d", i), Node: "node",
			}); err != nil {
				return nil, err
			}
		}
		_, reports, err := p.FanoutCtx(context.Background(), src, targets, n)
		if err != nil {
			return nil, err
		}
		flats := make([]flatRep, len(reports))
		for i, r := range reports {
			flats[i] = flatFrom(r)
		}
		points = append(points, fanoutPoint(SysRRKernel, degree, flats))
		p.Close()
	}

	// RunC fan-out over loopback HTTP.
	{
		k := kernel.New("node")
		src := baseline.NewRunCFunction("src", k, baseline.ContainerImageBytes, nil)
		src.Produce(n)
		env := baseline.TransferEnv{Link: netsim.DefaultLoopback(), Flows: degree}
		flats := make([]flatRep, 0, degree)
		for i := 0; i < degree; i++ {
			dst := baseline.NewRunCFunction(fmt.Sprintf("t%d", i), k, baseline.ContainerImageBytes, nil)
			_, rep, err := src.Transfer(dst, env)
			if err != nil {
				return nil, err
			}
			flats = append(flats, flatFrom(rep))
			dst.Close()
		}
		points = append(points, fanoutPoint(SysRunC, degree, flats))
		src.Close()
	}

	// WasmEdge fan-out over loopback HTTP.
	{
		k := kernel.New("node")
		src, err := baseline.NewWasmEdgeFunction("src", k, guest.Module(), nil)
		if err != nil {
			return nil, err
		}
		if err := src.Produce(n); err != nil {
			return nil, err
		}
		env := baseline.TransferEnv{Link: netsim.DefaultLoopback(), Flows: degree}
		flats := make([]flatRep, 0, degree)
		for i := 0; i < degree; i++ {
			dst, err := baseline.NewWasmEdgeFunction(fmt.Sprintf("t%d", i), k, guest.Module(), nil)
			if err != nil {
				return nil, err
			}
			_, _, rep, err := src.Transfer(dst, env)
			if err != nil {
				return nil, err
			}
			flats = append(flats, flatFrom(rep))
			dst.Close()
		}
		points = append(points, fanoutPoint(SysWasmEdge, degree, flats))
		src.Close()
	}

	return points, nil
}

// Fig10 regenerates the inter-node fan-out study (Fig. 10a–h): a source on
// one node fanning out to targets on the other node over the shared
// 100 Mbps link.
func Fig10(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	n := opts.FanoutPayloadMB * MB
	res := &Result{
		ID:     "fig10",
		Mode:   "fanout-inter",
		Title:  fmt.Sprintf("Inter-node fan-out, %d MB per transfer", opts.FanoutPayloadMB),
		XLabel: "degree",
	}
	for _, degree := range opts.FanoutDegrees {
		pts, err := interFanoutPoints(degree, n)
		if err != nil {
			return nil, fmt.Errorf("degree %d: %w", degree, err)
		}
		res.Points = append(res.Points, pts...)
	}
	return res, nil
}

func interFanoutPoints(degree, n int) ([]Point, error) {
	var points []Point

	// RoadRunner (Network).
	{
		p := roadrunner.New(roadrunner.WithLink(100*roadrunner.Mbps, time.Millisecond))
		src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "edge"})
		if err != nil {
			return nil, err
		}
		targets := make([]*roadrunner.Function, degree)
		for i := range targets {
			if targets[i], err = p.Deploy(roadrunner.FunctionSpec{
				Name: fmt.Sprintf("t%d", i), Node: "cloud",
			}); err != nil {
				return nil, err
			}
		}
		_, reports, err := p.FanoutCtx(context.Background(), src, targets, n)
		if err != nil {
			return nil, err
		}
		flats := make([]flatRep, len(reports))
		for i, r := range reports {
			flats[i] = flatFrom(r)
		}
		points = append(points, fanoutPoint(SysRRNetwork, degree, flats))
		p.Close()
	}

	// RunC.
	{
		k1, k2 := kernel.New("edge"), kernel.New("cloud")
		src := baseline.NewRunCFunction("src", k1, baseline.ContainerImageBytes, nil)
		src.Produce(n)
		env := baseline.TransferEnv{Link: paperLink(), Flows: degree}
		flats := make([]flatRep, 0, degree)
		for i := 0; i < degree; i++ {
			dst := baseline.NewRunCFunction(fmt.Sprintf("t%d", i), k2, baseline.ContainerImageBytes, nil)
			_, rep, err := src.Transfer(dst, env)
			if err != nil {
				return nil, err
			}
			flats = append(flats, flatFrom(rep))
			dst.Close()
		}
		points = append(points, fanoutPoint(SysRunC, degree, flats))
		src.Close()
	}

	// WasmEdge.
	{
		k1, k2 := kernel.New("edge"), kernel.New("cloud")
		src, err := baseline.NewWasmEdgeFunction("src", k1, guest.Module(), nil)
		if err != nil {
			return nil, err
		}
		if err := src.Produce(n); err != nil {
			return nil, err
		}
		env := baseline.TransferEnv{Link: paperLink(), Flows: degree}
		flats := make([]flatRep, 0, degree)
		for i := 0; i < degree; i++ {
			dst, err := baseline.NewWasmEdgeFunction(fmt.Sprintf("t%d", i), k2, guest.Module(), nil)
			if err != nil {
				return nil, err
			}
			_, _, rep, err := src.Transfer(dst, env)
			if err != nil {
				return nil, err
			}
			flats = append(flats, flatFrom(rep))
			dst.Close()
		}
		points = append(points, fanoutPoint(SysWasmEdge, degree, flats))
		src.Close()
	}

	return points, nil
}
