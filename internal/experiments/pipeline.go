package experiments

import (
	"context"
	"fmt"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// System labels for the pipeline comparison.
const (
	SysRRChainPipelined = "RoadRunner (chain, pipelined)"
	SysRRChainLocked    = "RoadRunner (chain, phase-locked)"
)

// Pipeline contrasts the staged data-plane pipeline against the
// phase-locked execution regime on multi-hop chains (not a paper figure —
// the paper's testbed runs each shim as its own process, so its transfers
// are staged by construction; the phase-locked regime is this
// reproduction's pre-pipeline engine, kept as the ablation baseline).
// Every chain hop is a network transfer whose payload crosses the data
// hose in several chunks; the pipelined regime overlaps each hop's source
// egress, wire and target ingress chunk-by-chunk (reported as the
// Breakdown.Overlap credit), while the phase-locked regime runs them
// strictly in sequence. Both regimes issue identical syscall and copy
// sequences, so the latency gap is pure critical-path scheduling.
func Pipeline(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{
		ID:     "pipeline",
		Mode:   "chain-pipeline",
		Title:  "Staged pipeline vs phase-locked execution on multi-hop chains",
		XLabel: "hops",
	}
	n := opts.FanoutPayloadMB * MB
	for _, hops := range []int{3, 5} {
		for _, regime := range []struct {
			system      string
			phaseLocked bool
		}{
			{SysRRChainPipelined, false},
			{SysRRChainLocked, true},
		} {
			pt, err := pipelineChainPoint(regime.system, hops, n, opts.Runs, regime.phaseLocked)
			if err != nil {
				return nil, fmt.Errorf("%s, %d hops: %w", regime.system, hops, err)
			}
			res.Points = append(res.Points, pt)
		}
	}
	res.Notes = append(res.Notes, pipelineHeadlines(res.Points)...)
	return res, nil
}

// pipelineChainPoint measures one (regime, depth) cell on a fresh
// deployment: a chain over depth+1 dedicated shims alternating edge and
// cloud placement, every hop a multi-chunk network transfer over a
// 100 Gbps / 10 µs link (a DC-class link whose wire time is comparable to
// the endpoint stages, so the pipeline has all three stage classes to
// overlap).
func pipelineChainPoint(system string, hops, n, runs int, phaseLocked bool) (Point, error) {
	p := roadrunner.New(
		roadrunner.WithLink(100*roadrunner.Gbps, 10*time.Microsecond),
		roadrunner.WithDataHoseSize(128<<10),
	)
	defer p.Close()
	fns := make([]*roadrunner.Function, hops+1)
	for i := range fns {
		node := "edge"
		if i%2 == 1 {
			node = "cloud"
		}
		var err error
		if fns[i], err = p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("f%d", i), Node: node}); err != nil {
			return Point{}, err
		}
	}
	var topts []roadrunner.TransferOption
	if phaseLocked {
		topts = append(topts, roadrunner.WithPhaseLocked(true))
	}
	release := func(ref roadrunner.DataRef) error {
		// Release every hop's region so repeated runs measure a flat heap:
		// after a hop, a function's current output is its inbound region.
		if err := fns[len(fns)-1].Release(ref); err != nil {
			return err
		}
		for _, f := range fns[:len(fns)-1] {
			out, err := f.Output()
			if err != nil {
				return err
			}
			if err := f.Release(out); err != nil {
				return err
			}
		}
		return nil
	}
	// Warmup: establish the per-pair channels and grow the linear memories,
	// so the measured runs below are the steady state (the chancache
	// experiment measures the cold regime explicitly).
	for w := 0; w < 2; w++ {
		ref, _, err := p.ChainCtx(context.Background(), n, fns, topts...)
		if err != nil {
			return Point{}, err
		}
		if err := release(ref); err != nil {
			return Point{}, err
		}
	}
	// Best-of-N: stage activity is measured wall time, so on a loaded (or
	// single-core) host the overlapped stages pick up scheduling noise; the
	// minimum-latency run is the standard robust estimator for the regime's
	// true cost. At least 5 runs even when the sweep is configured for 1.
	if runs < 5 {
		runs = 5
	}
	var best *Point
	for r := 0; r < runs; r++ {
		ref, rep, err := p.ChainCtx(context.Background(), n, fns, topts...)
		if err != nil {
			return Point{}, err
		}
		if err := verifyChecksum(fns[len(fns)-1], ref, n); err != nil {
			return Point{}, err
		}
		if phaseLocked && rep.Breakdown.Overlap != 0 {
			return Point{}, fmt.Errorf("phase-locked chain reported overlap %v", rep.Breakdown.Overlap)
		}
		if err := release(ref); err != nil {
			return Point{}, err
		}
		pt := pointFrom(system, float64(hops), rep)
		if best == nil || pt.Latency < best.Latency {
			best = &pt
		}
	}
	return *best, nil
}

// pipelineHeadlines summarizes the pipelined-vs-phase-locked win per depth.
func pipelineHeadlines(points []Point) []string {
	byDepth := map[float64]map[string]Point{}
	for _, p := range points {
		if byDepth[p.X] == nil {
			byDepth[p.X] = map[string]Point{}
		}
		byDepth[p.X][p.System] = p
	}
	var notes []string
	for _, depth := range []float64{3, 5} {
		cell := byDepth[depth]
		pipe, okP := cell[SysRRChainPipelined]
		lock, okL := cell[SysRRChainLocked]
		if !okP || !okL {
			continue
		}
		if note := headline(fmt.Sprintf("%g-hop chain latency", depth), SysRRChainPipelined, SysRRChainLocked, pipe.Latency, lock.Latency); note != "" {
			notes = append(notes, note)
		}
		if lock.RPS > 0 {
			notes = append(notes, fmt.Sprintf("%g-hop aggregate throughput: pipelined %.0f rps vs phase-locked %.0f rps (%+.1f%%), overlap credit %.3gs",
				depth, pipe.RPS, lock.RPS, (pipe.RPS/lock.RPS-1)*100, pipe.Breakdown.Overlap.Seconds()))
		}
	}
	return notes
}
