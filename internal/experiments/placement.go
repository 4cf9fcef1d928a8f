package experiments

import (
	"context"
	"fmt"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// System labels for the placement comparison.
const (
	SysRRPlaceLocality = "RoadRunner (placement: locality)"
	SysRRPlaceRR       = "RoadRunner (placement: round-robin)"
)

// Placement contrasts locality-aware invocation routing against the
// placement-oblivious round-robin baseline on replicated function pools
// (not a paper figure — the paper deploys one instance per function; this
// is the §2.2 claim "Roadrunner optimizes communication regardless of the
// scheduler's placement" made falsifiable at pool scale). Two functions
// deploy R-replica pools straddling the edge–cloud link, deliberately
// spread in opposite node orders; every invocation produces at a routed
// source instance and delivers to a routed target instance. Locality pairs
// same-node instances — every payload moves as a kernel-space transfer,
// zero wire time — while round-robin's cursors pair instances blindly and
// pay the 100 Mbps / 1 ms link. The win is modeled (latencies carry the
// analytic network component), so the ≥25% acceptance bar is
// hardware-independent.
func Placement(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{
		ID:     "placement",
		Mode:   "placement-replicas",
		Title:  "Locality vs round-robin placement on replicated pools (edge–cloud)",
		XLabel: "replicas",
	}
	n := opts.FanoutPayloadMB * MB
	for _, replicas := range []int{1, 4, 16} {
		for _, regime := range []struct {
			system string
			policy roadrunner.PlacementPolicy
		}{
			{SysRRPlaceLocality, roadrunner.PlacementLocality},
			{SysRRPlaceRR, roadrunner.PlacementRoundRobin},
		} {
			pt, err := placementPoint(regime.system, regime.policy, replicas, n)
			if err != nil {
				return nil, fmt.Errorf("%s, %d replicas: %w", regime.system, replicas, err)
			}
			res.Points = append(res.Points, pt)
		}
	}
	res.Notes = append(res.Notes, placementHeadlines(res.Points)...)
	return res, nil
}

// placementPoint measures one (policy, pool size) cell on a fresh two-node
// deployment: source replicas spread edge,cloud,…, target replicas spread
// cloud,edge,… (two pools a placement-oblivious router cannot align), and
// 2R invocations driven sequentially through Platform.InvokeCtx. Throughput is
// the modeled aggregate: invocations are grouped by the concrete instance
// pair they ran on — distinct pairs are distinct shims and execute in
// parallel — so the pool's makespan is the busiest pair's summed modeled
// latency, and aggregate throughput is invocations over that makespan.
func placementPoint(system string, policy roadrunner.PlacementPolicy, replicas, n int) (Point, error) {
	p := roadrunner.New(roadrunner.WithPlacement(policy))
	defer p.Close()
	src, err := p.Deploy(roadrunner.FunctionSpec{
		Name: "src", Replicas: replicas, Nodes: []string{"edge", "cloud"},
	})
	if err != nil {
		return Point{}, err
	}
	dst, err := p.Deploy(roadrunner.FunctionSpec{
		Name: "dst", Replicas: replicas, Nodes: []string{"cloud", "edge"},
	})
	if err != nil {
		return Point{}, err
	}

	invocations := 2 * replicas
	if invocations < 4 {
		invocations = 4
	}
	var (
		total    roadrunner.Report
		pairBusy = map[[2]int]time.Duration{}
		network  time.Duration
	)
	for k := 0; k < invocations; k++ {
		inv, err := p.InvokeCtx(context.Background(), src, dst, n)
		if err != nil {
			return Point{}, err
		}
		sum, err := inv.Target.Checksum(inv.Ref)
		if err != nil {
			return Point{}, err
		}
		if want := roadrunner.ExpectedChecksum(n); sum != want {
			return Point{}, fmt.Errorf("checksum %#x, want %#x at %s", sum, want, inv.Target.Name())
		}
		if err := inv.Target.Release(inv.Ref); err != nil {
			return Point{}, err
		}
		pairBusy[[2]int{inv.Source.Index(), inv.Target.Index()}] += inv.Report.Latency()
		network += inv.Report.Breakdown.Network
		if k == 0 {
			total = inv.Report
		} else {
			total = total.Merge(inv.Report)
		}
	}
	var makespan time.Duration
	for _, busy := range pairBusy {
		makespan = max(makespan, busy)
	}
	meanLatency := total.Latency() / time.Duration(invocations)

	pt := pointFrom(system, float64(replicas), total)
	pt.Latency = meanLatency
	if makespan > 0 {
		// Aggregate modeled throughput across the pool's parallel pairs.
		pt.RPS = float64(invocations) / makespan.Seconds()
	}
	pt.Breakdown.Network = network
	return pt, nil
}

// placementHeadlines summarizes the locality-vs-round-robin win per pool
// size.
func placementHeadlines(points []Point) []string {
	byReplicas := map[float64]map[string]Point{}
	for _, p := range points {
		if byReplicas[p.X] == nil {
			byReplicas[p.X] = map[string]Point{}
		}
		byReplicas[p.X][p.System] = p
	}
	var notes []string
	for _, r := range []float64{1, 4, 16} {
		cell := byReplicas[r]
		loc, okL := cell[SysRRPlaceLocality]
		rr, okR := cell[SysRRPlaceRR]
		if !okL || !okR || rr.RPS <= 0 {
			continue
		}
		notes = append(notes, fmt.Sprintf(
			"%g replicas aggregate throughput: locality %.1f rps vs round-robin %.1f rps (%+.1f%%); wire time %s vs %s",
			r, loc.RPS, rr.RPS, (loc.RPS/rr.RPS-1)*100,
			fmtDur(loc.Breakdown.Network), fmtDur(rr.Breakdown.Network)))
	}
	return notes
}
