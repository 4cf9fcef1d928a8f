package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// testOpts keeps experiment tests fast while remaining meaningful.
func testOpts() Options {
	return Options{
		SizesMB:         []int{1, 2},
		Fig6PayloadMB:   2,
		FanoutDegrees:   []int{1, 4},
		FanoutPayloadMB: 1,
		Runs:            1,
	}
}

// bySystem indexes the points of one X value.
func bySystem(points []Point, x float64) map[string]Point {
	out := map[string]Point{}
	for _, p := range points {
		if p.X == x {
			out[p.System] = p
		}
	}
	return out
}

func TestRegistryComplete(t *testing.T) {
	for _, id := range IDs() {
		if Registry[id] == nil {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
	if len(Registry) != len(IDs()) {
		t.Fatalf("registry has %d entries, IDs() has %d", len(Registry), len(IDs()))
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.SizesMB) == 0 || o.Runs != 1 || o.FanoutPayloadMB == 0 {
		t.Fatalf("defaults = %+v", o)
	}
	full := Full()
	if full.SizesMB[len(full.SizesMB)-1] != 500 {
		t.Fatalf("full sweep = %v", full.SizesMB)
	}
	quick := Quick()
	if len(quick.SizesMB) == 0 {
		t.Fatal("quick sweep empty")
	}
}

// TestFig7OrderingMatchesPaper pins the paper's §6.3 intra-node ordering:
// the faster RoadRunner mode, then RunC, then WasmEdge; Roadrunner's
// serialization cost far below the codec paths. (User space vs kernel
// space awaits the bench sweeps, ROADMAP item 1.)
func TestFig7OrderingMatchesPaper(t *testing.T) {
	res, err := Fig7(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []float64{1, 2} {
		sys := bySystem(res.Points, size)
		u, k, r, w := sys[SysRRUser], sys[SysRRKernel], sys[SysRunC], sys[SysWasmEdge]
		// The two Roadrunner modes are too close to order by wall clock
		// inside go test; only the faster of them is held against RunC.
		fastRR := min(u.Latency, k.Latency)
		if !(fastRR < r.Latency && r.Latency < w.Latency) {
			t.Fatalf("size %v: latency ordering violated: user=%v kernel=%v runc=%v wasmedge=%v",
				size, u.Latency, k.Latency, r.Latency, w.Latency)
		}
		// Paper: RR reduces latency 44-89%+ vs WasmEdge.
		if float64(u.Latency) > 0.56*float64(w.Latency) {
			t.Fatalf("size %v: RR-User only %.0f%% below WasmEdge",
				size, (1-float64(u.Latency)/float64(w.Latency))*100)
		}
		// Serialization: codec paths pay, Roadrunner does not.
		if u.SerLatency >= r.SerLatency || r.SerLatency >= w.SerLatency {
			t.Fatalf("size %v: serialization ordering violated: %v %v %v",
				size, u.SerLatency, r.SerLatency, w.SerLatency)
		}
	}
	if len(res.Notes) == 0 {
		t.Fatal("fig7 produced no headline notes")
	}
}

// TestFig8MatchesPaperShape pins the §6.3 inter-node claims: Roadrunner
// close to RunC (the upper bound), far below WasmEdge, with ≥90%
// serialization reduction.
func TestFig8MatchesPaperShape(t *testing.T) {
	res, err := Fig8(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	sys := bySystem(res.Points, 2)
	rr, rc, we := sys[SysRRNetwork], sys[SysRunC], sys[SysWasmEdge]
	// RR within 25% of RunC.
	if float64(rr.Latency) > 1.25*float64(rc.Latency) {
		t.Fatalf("RR %v much slower than RunC %v", rr.Latency, rc.Latency)
	}
	// RR at least 40% below WasmEdge (paper: 62%).
	if float64(rr.Latency) > 0.6*float64(we.Latency) {
		t.Fatalf("RR %v not far enough below WasmEdge %v", rr.Latency, we.Latency)
	}
	// Serialization reduced ≥90% vs WasmEdge (paper: 97%).
	if float64(rr.SerLatency) > 0.1*float64(we.SerLatency) {
		t.Fatalf("serialization: RR %v vs WasmEdge %v", rr.SerLatency, we.SerLatency)
	}
	// Network dominates every system inter-node.
	for name, p := range sys {
		if p.Breakdown.Network <= 0 {
			t.Fatalf("%s missing network time", name)
		}
	}
}

func TestFig6BreakdownShares(t *testing.T) {
	res, err := Fig6(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	sys := bySystem(res.Points, 2)
	rr, we := sys[SysRRNetwork], sys[SysWasmEdge]
	// Roadrunner: no serialization component at all.
	if rr.Breakdown.Serialization != 0 {
		t.Fatalf("RR serialization = %v", rr.Breakdown.Serialization)
	}
	// Roadrunner is network-dominated (paper: overall latency approaches
	// RunC where network dominates).
	if float64(rr.Breakdown.Network) < 0.9*float64(rr.Latency) {
		t.Fatalf("RR network share = %.1f%%", float64(rr.Breakdown.Network)/float64(rr.Latency)*100)
	}
	// WasmEdge pays a large serialization share even inter-node.
	if float64(we.Breakdown.Serialization) < 0.3*float64(we.Latency) {
		t.Fatalf("WasmEdge serialization share = %.1f%%",
			float64(we.Breakdown.Serialization)/float64(we.Latency)*100)
	}
	if len(res.Notes) < 6 {
		t.Fatalf("fig6 notes = %d", len(res.Notes))
	}
}

func TestFig2aShape(t *testing.T) {
	res, err := Fig2a(Options{})
	if err != nil {
		t.Fatal(err)
	}
	pts := map[string]Point{}
	for _, p := range res.Points {
		pts[p.System] = p
	}
	contH, wasmH := pts["Cont (Hello World)"], pts["Wasm (Hello World)"]
	contR, wasmR := pts["Cont (Resize Image)"], pts["Wasm (Resize Image)"]
	// Wasm cold starts far below containers.
	if wasmH.Latency >= contH.Latency/2 {
		t.Fatalf("wasm cold %v vs container %v", wasmH.Latency, contH.Latency)
	}
	// Without WASI, Wasm executes faster than the container path.
	if wasmH.Breakdown.Compute >= contH.Breakdown.Compute {
		t.Fatalf("hello exec: wasm %v vs cont %v", wasmH.Breakdown.Compute, contH.Breakdown.Compute)
	}
	// With WASI (file read), Wasm execution exceeds the container's.
	if wasmR.Breakdown.Compute <= contR.Breakdown.Compute {
		t.Fatalf("resize exec: wasm %v vs cont %v", wasmR.Breakdown.Compute, contR.Breakdown.Compute)
	}
}

func TestFig2bWasmSerializationShareHigher(t *testing.T) {
	res, err := Fig2b(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []float64{1, 2} {
		sys := bySystem(res.Points, size)
		cont, wasm := sys["Cont"], sys["Wasm"]
		contShare := float64(cont.Breakdown.Serialization) / float64(cont.Latency)
		wasmShare := float64(wasm.Breakdown.Serialization) / float64(wasm.Latency)
		if wasmShare <= contShare {
			t.Fatalf("size %v: wasm share %.2f <= container share %.2f", size, wasmShare, contShare)
		}
	}
}

func TestFig9FanoutThroughput(t *testing.T) {
	res, err := Fig9(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, degree := range []float64{1, 4} {
		sys := bySystem(res.Points, degree)
		if len(sys) != 4 {
			t.Fatalf("degree %v: %d systems", degree, len(sys))
		}
		u, w := sys[SysRRUser], sys[SysWasmEdge]
		// Paper: up to 64x throughput vs WasmEdge intra-node; require ≥10x.
		if u.RPS < 10*w.RPS {
			t.Fatalf("degree %v: RR-User %.1f rps vs WasmEdge %.1f rps", degree, u.RPS, w.RPS)
		}
	}
}

func TestFig10FanoutShape(t *testing.T) {
	res, err := Fig10(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	sys := bySystem(res.Points, 4)
	rr, we := sys[SysRRNetwork], sys[SysWasmEdge]
	// Paper: RR reduces latency up to 65% and raises throughput up to 2.8x
	// inter-node; require the direction with margin.
	if rr.RPS <= we.RPS {
		t.Fatalf("RR %.2f rps <= WasmEdge %.2f rps", rr.RPS, we.RPS)
	}
	if rr.Latency >= we.Latency {
		t.Fatalf("RR latency %v >= WasmEdge %v", rr.Latency, we.Latency)
	}
}

// TestPlacementExperimentWin pins the invoker plane's acceptance bar: on a
// two-node edge–cloud topology with pools of ≥4 replicas straddling the
// link, locality placement must beat the round-robin ablation's aggregate
// throughput by at least 25% (measured: orders of magnitude — round-robin
// pays 100 Mbps wire time that locality converts to kernel-space
// transfers). The throughput is modeled from per-invocation latency
// breakdowns dominated by the analytic network component, so the bar is
// hardware-independent and holds under the race detector.
func TestPlacementExperimentWin(t *testing.T) {
	res, err := Placement(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, replicas := range []float64{4, 16} {
		sys := bySystem(res.Points, replicas)
		loc, rr := sys[SysRRPlaceLocality], sys[SysRRPlaceRR]
		if loc.RPS <= 0 || rr.RPS <= 0 {
			t.Fatalf("%v replicas: missing points %+v", replicas, sys)
		}
		if loc.Breakdown.Network != 0 {
			t.Fatalf("%v replicas: locality paid wire time %v — not all invocations stayed same-node",
				replicas, loc.Breakdown.Network)
		}
		if rr.Breakdown.Network == 0 {
			t.Fatalf("%v replicas: round-robin paid no wire time — ablation not exercising the link", replicas)
		}
		if loc.RPS < 1.25*rr.RPS {
			t.Fatalf("%v replicas: locality %.1f rps vs round-robin %.1f rps — win below 25%%",
				replicas, loc.RPS, rr.RPS)
		}
	}
	// At one replica there is no placement freedom: both policies drive the
	// same single network pair and report identical modeled wire time.
	single := bySystem(res.Points, 1)
	if single[SysRRPlaceLocality].Breakdown.Network != single[SysRRPlaceRR].Breakdown.Network {
		t.Fatalf("1 replica: wire time differs across policies: %+v", single)
	}
	if len(res.Notes) == 0 {
		t.Fatal("placement experiment produced no headline notes")
	}
}

// TestFailureDegradeUnderKill pins the degrade-under-kill acceptance bar:
// Failure itself errors when any invocation fails outright or throughput
// degrades by more than 2× the killed capacity fraction, so the test only
// re-asserts the shape of the result. The makespan model is count-driven
// (homogeneous kernel-space transfers), so the bar holds under the race
// detector.
func TestFailureDegradeUnderKill(t *testing.T) {
	res, err := Failure(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	sys := bySystem(res.Points, failureReplicas)
	base, killed := sys[SysRRAllHealthy], sys[SysRRDegraded]
	if base.RPS <= 0 || killed.RPS <= 0 {
		t.Fatalf("missing points: %+v", sys)
	}
	if killed.RPS >= base.RPS {
		t.Fatalf("kill run faster than healthy run: %.1f vs %.1f rps — the kill did not bite", killed.RPS, base.RPS)
	}
	if len(res.Notes) < 2 {
		t.Fatalf("failure experiment notes = %v", res.Notes)
	}
}

func TestResultPrint(t *testing.T) {
	res := &Result{
		ID:     "figX",
		Title:  "test",
		XLabel: "size(MB)",
		Points: []Point{{System: "S", X: 1, Latency: time.Second, RPS: 1}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	res.Print(&buf)
	out := buf.String()
	for _, want := range []string{"figX", "size(MB)", "a note", "1s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestAveragePoints(t *testing.T) {
	a := Point{Latency: 2 * time.Second, RPS: 2, RAMMB: 10}
	b := Point{Latency: 4 * time.Second, RPS: 4, RAMMB: 30}
	avg := averagePoints([]Point{a, b})
	if avg.Latency != 3*time.Second || avg.RPS != 3 || avg.RAMMB != 20 {
		t.Fatalf("avg = %+v", avg)
	}
	if one := averagePoints([]Point{a}); one != a {
		t.Fatal("single-point average changed the point")
	}
}

func TestHeadlineFormatting(t *testing.T) {
	s := headline("latency", "A", "B", time.Second, 4*time.Second)
	if !strings.Contains(s, "+75.0%") {
		t.Fatalf("headline = %q", s)
	}
	if headline("x", "A", "B", 1, 0) != "" {
		t.Fatal("zero-baseline headline should be empty")
	}
}
