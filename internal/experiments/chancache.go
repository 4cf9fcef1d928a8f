package experiments

import (
	"context"
	"fmt"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// System labels for the channel-cache comparison.
const (
	SysRRNetworkCold = "RoadRunner (Network, cold)"
	SysRRNetworkWarm = "RoadRunner (Network, warm)"
	SysRRKernelCold  = "RoadRunner (Kernel space, cold)"
	SysRRKernelWarm  = "RoadRunner (Kernel space, warm)"
)

// ChanCache contrasts cold and warm transfers across the persistent
// data-hose channel cache (not a paper figure — the steady-state regime the
// paper's per-request measurements leave out). Cold points disable the cache
// so every transfer pays connection/pipe establishment and teardown; warm
// points prime the pair's channel once and then measure pure cache hits,
// whose Breakdown.Setup is exactly zero.
func ChanCache(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{
		ID:     "chancache",
		Mode:   "channel-cache",
		Title:  "Warm vs cold transfers over the persistent data-hose channel cache",
		XLabel: "size(MB)",
	}
	for _, sizeMB := range opts.SizesMB {
		pts, err := chanCachePoints(float64(sizeMB), sizeMB*MB, opts.Runs)
		if err != nil {
			return nil, fmt.Errorf("size %d MB: %w", sizeMB, err)
		}
		res.Points = append(res.Points, pts...)
	}
	res.Notes = append(res.Notes, chanCacheHeadlines(res.Points)...)
	return res, nil
}

// chanCachePoints measures one payload size across the four regimes, each
// on a fresh deployment.
func chanCachePoints(x float64, n, runs int) ([]Point, error) {
	var points []Point
	measure := func(system string, mode roadrunner.Mode, warm bool) error {
		p := roadrunner.New(roadrunner.WithLink(100*roadrunner.Mbps, time.Millisecond))
		defer p.Close()
		nodeB := "cloud"
		if mode == roadrunner.ModeKernelSpace {
			nodeB = "edge"
		}
		a, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: "edge"})
		if err != nil {
			return err
		}
		b, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: nodeB})
		if err != nil {
			return err
		}
		if err := a.Produce(n); err != nil {
			return err
		}
		if warm {
			if err := warmupRR(p, a, b); err != nil {
				return err
			}
		}
		topts := []roadrunner.TransferOption{roadrunner.WithMode(mode)}
		if !warm {
			topts = append(topts, roadrunner.WithChannelCache(false))
		}
		var collected []Point
		for r := 0; r < runs; r++ {
			ref, rep, err := p.TransferCtx(context.Background(), a, b, topts...)
			if err != nil {
				return err
			}
			if err := verifyChecksum(b, ref, n); err != nil {
				return err
			}
			if err := b.Release(ref); err != nil {
				return err
			}
			if warm && rep.Breakdown.Setup != 0 {
				return fmt.Errorf("warm transfer paid setup %v", rep.Breakdown.Setup)
			}
			collected = append(collected, pointFrom(system, x, rep))
		}
		points = append(points, averagePoints(collected))
		return nil
	}
	regimes := []struct {
		system string
		mode   roadrunner.Mode
		warm   bool
	}{
		{SysRRNetworkCold, roadrunner.ModeNetwork, false},
		{SysRRNetworkWarm, roadrunner.ModeNetwork, true},
		{SysRRKernelCold, roadrunner.ModeKernelSpace, false},
		{SysRRKernelWarm, roadrunner.ModeKernelSpace, true},
	}
	for _, r := range regimes {
		if err := measure(r.system, r.mode, r.warm); err != nil {
			return nil, fmt.Errorf("%s: %w", r.system, err)
		}
	}
	return points, nil
}

// chanCacheHeadlines summarizes the warm-vs-cold win at the largest size.
func chanCacheHeadlines(points []Point) []string {
	last := map[string]Point{}
	for _, p := range points {
		last[p.System] = p // ordered by size; keep the largest
	}
	var notes []string
	compare := func(metric, warmSys, coldSys string) {
		w, okW := last[warmSys]
		c, okC := last[coldSys]
		if !okW || !okC {
			return
		}
		if note := headline(metric, warmSys, coldSys, w.Latency, c.Latency); note != "" {
			notes = append(notes, note)
		}
		notes = append(notes, fmt.Sprintf("%s cold setup: %.6gs (%.1f%% of cold latency)",
			metric, c.Breakdown.Setup.Seconds(), pct(c.Breakdown.Setup, c.Latency)))
	}
	compare("network latency", SysRRNetworkWarm, SysRRNetworkCold)
	compare("kernel latency", SysRRKernelWarm, SysRRKernelCold)
	return notes
}
