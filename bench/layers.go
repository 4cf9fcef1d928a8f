package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"text/tabwriter"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/core"
)

const (
	// layerSeconds is the measured time of the layer run's traced op loop.
	layerSeconds = 1.0
	// probeBudget is how long one probe samples; with some forty probes a
	// layer run stays under its four seconds per workload.
	probeBudget = 40 * time.Millisecond
	// probeMinIters is the least number of samples a probe takes, however
	// slow one call is (guest produce of 16 MiB takes ~90 ms). One more
	// call runs first and is not sampled: it faults in fresh pages and
	// grows pools, which the steady state the budget describes does not.
	probeMinIters = 3
	// probeWantIters is how many samples a probe goes on for past its
	// budget, up to probeStretch budgets: a 16 MiB transfer and its release
	// take 3 to 10 ms from one call to the next on this box, and four
	// samples make a poor median.
	probeWantIters = 12
	probeStretch   = 6
	// baselineBudget caps the two baseline probes together.
	baselineBudget = 2 * time.Second
	// baselineMaxBytes caps the baseline payload: the in-guest codec runs
	// at interpreter speed.
	baselineMaxBytes = 1 << 20
	// budgetGapLimit is the |api.budget_gap_pct| above which the budget
	// table flags the gap as a finding.
	budgetGapLimit = 15.0
)

// layerSpec parameterises one layer run: the traced run of one workload.
type layerSpec struct {
	w       *workload
	seconds float64
	seed    int64
	// untracedP50 is the workload's op_p50_us measured with tracing off;
	// the difference to the traced op is the tracing overhead.
	untracedP50 float64
	// spans, when set, is the file the spans are written to at exit.
	spans string
	// budget is the sampling time per probe (probeBudget when zero).
	budget time.Duration
}

// layerResult is what one layer run emits: one JSON line in a child process.
type layerResult struct {
	Workload string             `json:"workload"`
	Spans    int                `json:"spans"`
	Metrics  map[string]float64 `json:"metrics"`
	Budget   []budgetRow        `json:"budget"`
}

// budgetRow is one line of a workload's budget table.
type budgetRow struct {
	Name  string  `json:"name"`
	Depth int     `json:"depth"`
	US    float64 `json:"us"`
	Note  string  `json:"note,omitempty"`
}

// layerRun carries one layer run's state through its probes.
type layerRun struct {
	ctx   context.Context
	w     *workload
	tr    *tracer
	track *track
	// root is the id of the span that covers the whole layer run: the parent
	// of the traced op loop and of every probe.
	root   int64
	budget time.Duration
	// ns holds each probe span's reported time in nanoseconds, by span name.
	ns map[string]float64
	m  map[string]float64
}

// sampler times the calls of one probe. A probe loops on next, brackets the
// call it measures with start and stop, and does its own clean-up outside
// the bracket.
type sampler struct {
	lr   *layerRun
	name string
	// parent is the id of the probe's own span, which every sample names.
	parent   int64
	deadline time.Time
	iters    int
	op       int64
	t0       time.Time
	perCall  []float64
}

// next reports whether the probe should take another sample: the minimum
// first, then until the budget is spent. A cancelled run stops every probe
// at its next sample (sample turns that into the context's error).
func (s *sampler) next() bool {
	if core.CtxErr(s.lr.ctx) != nil {
		return false
	}
	s.iters++
	now := time.Now()
	return s.iters <= 1+probeMinIters || now.Before(s.deadline) ||
		(s.iters <= 1+probeWantIters && now.Before(s.deadline.Add((probeStretch-1)*s.lr.budget)))
}

func (s *sampler) start() {
	s.op = s.lr.tr.nextOp.Add(1)
	s.t0 = time.Now()
}

// stop ends the bracket opened by start; calls is how many calls of the
// probed function the bracket held (cheap calls are batched, so the clock's
// own cost stays small beside them).
func (s *sampler) stop(calls int) { s.stopAt(time.Now(), calls) }

// stopAt is stop for a bracket that ended at end, on another goroutine's
// clock reading.
func (s *sampler) stopAt(end time.Time, calls int) {
	if s.iters == 1 {
		return // the unsampled first call
	}
	s.lr.track.record(s.lr.tr.newID(), s.name, s.parent, s.op, s.t0, end)
	s.perCall = append(s.perCall, float64(end.Sub(s.t0))/float64(calls))
}

// sample runs one probe and stores the median of its per-call times under
// name, as the end-to-end values are medians. The probe's own span covers all
// its samples and is their parent.
func (lr *layerRun) sample(name string, probe func(s *sampler) error) error {
	begin := time.Now()
	s := &sampler{lr: lr, name: name, parent: lr.tr.newID(), deadline: begin.Add(lr.budget)}
	err := probe(s)
	lr.track.record(s.parent, "probe "+name, lr.root, 0, begin, time.Now())
	if err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	if err := lr.ctx.Err(); err != nil {
		return err
	}
	if len(s.perCall) == 0 {
		return fmt.Errorf("probe %s: no sample", name)
	}
	lr.ns[name] = median(s.perCall)
	return nil
}

// us returns a probe's reported time in microseconds.
func (lr *layerRun) us(name string) float64 { return lr.ns[name] / 1e3 }

// mbPerSec converts a probe's reported time for moving n bytes into MB/s.
func (lr *layerRun) mbPerSec(name string, n int) float64 {
	if lr.ns[name] <= 0 {
		return 0
	}
	return float64(n) / 1e6 / (lr.ns[name] / 1e9)
}

// reportSums accumulates what the program's own reports say about the
// traced ops: the breakdown laps, the modeled figures and the placement
// outcome, read from outside.
type reportSums struct {
	ops, deliveries, local                 int64
	transfer, wasmIO, overlap, setup, wire time.Duration
	modeled                                time.Duration
}

func (a *reportSums) add(reports []roadrunner.Report) {
	a.ops++
	for _, r := range reports {
		a.deliveries++
		if r.Mode == "user" || r.Mode == "kernel" || r.Mode == hopMcast {
			a.local++
		}
		a.transfer += r.Breakdown.Transfer
		a.wasmIO += r.Breakdown.WasmIO
		a.overlap += r.Breakdown.Overlap
		a.setup += r.Breakdown.Setup
		a.wire += r.Breakdown.Network
		a.modeled += r.Latency()
	}
}

func (a *reportSums) merge(o *reportSums) {
	a.ops += o.ops
	a.deliveries += o.deliveries
	a.local += o.local
	a.transfer += o.transfer
	a.wasmIO += o.wasmIO
	a.overlap += o.overlap
	a.setup += o.setup
	a.wire += o.wire
	a.modeled += o.modeled
}

// runLayers is the traced run of one workload: the op loop in the
// workload's own shape with a span around every op, then a probe of every
// layer at the workload's shape, then the budget table.
func runLayers(ctx context.Context, spec layerSpec) (*layerResult, error) {
	w := spec.w
	tr := newTracer()
	lr := &layerRun{ctx: ctx, w: w, tr: tr, track: tr.newTrack(), root: tr.newID(), budget: spec.budget, ns: map[string]float64{}, m: map[string]float64{}}
	if lr.budget == 0 {
		lr.budget = probeBudget
	}
	began := time.Now()

	// The traced op loop: same deployment, loop and client count as the
	// untraced rounds, so the only difference is the recording itself.
	var sums []*reportSums
	loop := tr.newID()
	rr, err := runRound(ctx, roundSpec{w: w, seconds: spec.seconds, seed: spec.seed, begin: began,
		wrap: func(c *client) {
			op, t, acc := c.op, tr.newTrack(), &reportSums{}
			sums = append(sums, acc)
			c.op = func(ctx context.Context, c *client) error {
				t0 := time.Now()
				err := op(ctx, c)
				t.record(tr.newID(), "api.op", loop, tr.nextOp.Add(1), t0, time.Now())
				acc.add(c.reports)
				return err
			}
		}})
	lr.track.record(loop, "traced op loop", lr.root, 0, began, time.Now())
	if err != nil {
		return nil, err
	}
	if rr.Failed > 0 {
		return nil, fmt.Errorf("%s: %d of %d traced ops failed: %v", w.name, rr.Failed, rr.Attempted, rr.Failures)
	}
	var total reportSums
	for _, a := range sums {
		total.merge(a)
	}
	perOp := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(max(total.ops, 1)) }
	m := lr.m
	m["api.op_us"] = rr.Metrics["op_p50_us"]
	for _, tail := range []string{"api.op_p90_us", "api.op_p99_us", "api.op_max_us"} {
		m[tail] = rr.Metrics[tail]
	}
	lr.ns["gen.late"] = rr.Metrics["gen.late_p50_us"] * 1e3
	m["core.bd_transfer_us"], m["core.bd_wasmio_us"] = perOp(total.transfer), perOp(total.wasmIO)
	m["core.bd_overlap_us"], m["core.bd_setup_us"] = perOp(total.overlap), perOp(total.setup)
	m["netsim.wire_us"], m["api.modeled_latency_us"] = perOp(total.wire), perOp(total.modeled)
	m["invoke.local_ratio"] = float64(total.local) / float64(max(total.deliveries, 1))
	m["api.trace_overhead_pct"] = 0
	if spec.untracedP50 > 0 {
		m["api.trace_overhead_pct"] = (m["api.op_us"] - spec.untracedP50) / spec.untracedP50 * 100
	}

	// The direct transfers go first: they are the largest rows of the budget
	// and allocate like the op itself, so they are sampled while the heap —
	// and with it the collector's pace — is still what the op loop left.
	for _, probe := range []func(*layerRun) error{
		probeCore, probeWasm, probeABI, probePagebuf, probeKernel, probeSched, probeInvoke,
		probeAPI, probeSerial, probeBaselines,
	} {
		// Each probe group starts from a collected heap, as the traced op
		// loop did: the buffers of the group before are garbage by now.
		runtime.GC()
		if err := probe(lr); err != nil {
			return nil, err
		}
	}
	lr.track.record(lr.root, "layer run", 0, 0, began, time.Now())
	res := &layerResult{Workload: w.name, Metrics: m, Budget: lr.budgetTable()}
	res.Spans = tr.count()
	if spec.spans != "" {
		if err := tr.writeTo(spec.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	for _, def := range probeLayer {
		if _, ok := m[def.name]; !ok {
			return nil, fmt.Errorf("layer run of %s did not measure %s", w.name, def.name)
		}
	}
	return res, nil
}

// budgetTable reconciles the traced op with what the probes account for.
//
// Top down, api.self_us is what the public API adds around the engine:
// api.op_us minus guest produce (when the op produces) minus the direct core
// transfer of every hop on the op's blocking path. Bottom up, the API probes
// (plan build, Submit/Wait, scheduler hand-off, placement, routing gauges)
// estimate the same thing; api.budget_gap_pct is the share of the op neither
// accounts for. One level down, core.self_us is each direct transfer minus
// its kernel, abi and wasm leaf probes.
func (lr *layerRun) budgetTable() []budgetRow {
	w, m := lr.w, lr.m
	op := m["api.op_us"]
	rows := []budgetRow{{Name: "api.op_us", US: op, Note: "traced op p50"}}
	explained := 0.0
	if w.produces {
		rows = append(rows, budgetRow{Name: "wasm.produce", Depth: 1, US: lr.us("wasm.produce"), Note: "guest produce at P"})
		explained += lr.us("wasm.produce")
	}
	var transfers, selfs float64
	for _, hop := range w.hops {
		t := lr.us("core.transfer[" + hop + "]")
		rows = append(rows, budgetRow{Name: "core.transfer[" + hop + "]", Depth: 1, US: t, Note: "direct core transfer on fresh shims"})
		leaves := lr.leaves(hop)
		sum := 0.0
		for _, leaf := range leaves {
			rows = append(rows, budgetRow{Name: leaf.Name, Depth: 2, US: leaf.US, Note: leaf.Note})
			sum += leaf.US
		}
		rows = append(rows, budgetRow{Name: "core.self[" + hop + "]", Depth: 2, US: t - sum, Note: "transfer minus its leaves (negative: stages overlapped)"})
		transfers += t
		selfs += t - sum
	}
	explained += transfers
	apiSelf := op - explained
	rows = append(rows, budgetRow{Name: "api.self_us", Depth: 1, US: apiSelf, Note: "op minus produce minus transfers"})
	probed := 0.0
	for _, leaf := range lr.apiOverheads() {
		rows = append(rows, budgetRow{Name: leaf.Name, Depth: 2, US: leaf.US, Note: leaf.Note})
		probed += leaf.US
	}
	gap := apiSelf - probed
	rows = append(rows, budgetRow{Name: "gap", Depth: 2, US: gap, Note: "api.self_us its probes do not account for"})
	m["core.transfer_us"], m["core.self_us"], m["api.self_us"] = transfers, selfs, apiSelf
	m["api.budget_gap_pct"] = 0
	if op > 0 {
		m["api.budget_gap_pct"] = gap / op * 100
	}
	return rows
}

// leaves lists the leaf probes one hop of the given mechanism is made of, at
// the workload's shape.
func (lr *layerRun) leaves(hop string) []budgetRow {
	pages := float64(pagesOf(lr.w.payload))
	locate := budgetRow{Name: "abi.locate", US: lr.us("abi.locate"), Note: "locate_memory_region"}
	allocate := budgetRow{Name: "abi.allocate", US: lr.us("abi.allocate"), Note: "allocate_memory in the target"}
	write := budgetRow{Name: "abi.write", US: lr.us("abi.write"), Note: "the copy into the target VM at P"}
	switch hop {
	case hopKernel:
		return []budgetRow{locate, {Name: "kernel.copy_path", US: lr.us("kernel.copy_path"), Note: "Write(P) then Read(P) over a socketpair"}, allocate}
	case hopNetwork:
		return []budgetRow{locate, {Name: "kernel.hose", US: lr.us("kernel.hose"), Note: "vmsplice, splice, splice, readrefs at P"}, write, allocate}
	case hopMcast:
		fan := float64(lr.w.fan)
		// The eight ingress copies run on core's own goroutines: with fewer
		// CPUs than targets they queue, and the slowest sets the latency.
		waves := float64((lr.w.fan + runtime.NumCPU() - 1) / runtime.NumCPU())
		return []budgetRow{locate,
			{Name: "pagebuf.gift", US: lr.ns["pagebuf.gift"] / 1e3, Note: "one vmsplice of P"},
			{Name: "kernel.tee", US: lr.ns["kernel.tee"] * pages * (fan - 1) / 1e3, Note: "fan-1 tee passes over P"},
			{Name: "abi.write x waves", US: waves * (lr.us("abi.write") + lr.us("abi.allocate")), Note: fmt.Sprintf("%d ingress copies over %d CPUs", lr.w.fan, runtime.NumCPU())},
		}
	default:
		return nil
	}
}

// apiOverheads lists the bottom-up estimate of what the public API adds per
// op, from the API-level probes.
func (lr *layerRun) apiOverheads() []budgetRow {
	w := lr.w
	blocking := float64(len(w.hops))
	rows := []budgetRow{
		{Name: "invoke.pick", US: lr.m["invoke.pick_ns"] / 1e3, Note: "placement decisions of one op"},
		{Name: "invoke.enter_exit", US: 2 * blocking * float64(w.fan) * lr.m["invoke.enter_exit_ns"] / 1e3, Note: "routing gauges, both ends of each blocking delivery"},
	}
	if w.loop == loopOpen {
		rows = append(rows, budgetRow{Name: "gen.late", US: lr.us("gen.late"), Note: "the generator's own lateness: dispatch minus due time"})
	}
	if w.produces {
		rows = append(rows,
			budgetRow{Name: "api.plan_build", US: lr.m["api.plan_build_ns"] / 1e3, Note: "NewPlan + 3 nodes + From"},
			budgetRow{Name: "api.submit_overhead", US: lr.m["api.submit_overhead_us"], Note: "Submit + Wait around one node"},
			budgetRow{Name: "sched.submit_run", US: (blocking - 1) * lr.m["sched.submit_run_ns"] / 1e3, Note: "hand-off of each further blocking node"},
		)
	}
	return rows
}

func pagesOf(n int) int { return (n + 4095) / 4096 }

// printBudget prints one workload's budget table.
func printBudget(out io.Writer, rows []budgetRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(out, "-- budget (us per op; share of the traced op)\n")
	op := rows[0].US
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, r := range rows {
		share := 0.0
		if op > 0 {
			share = r.US / op * 100
		}
		note := r.Note
		if r.Name == "gap" && math.Abs(share) > budgetGapLimit {
			note += fmt.Sprintf(" — FINDING: |gap| > %g %%", budgetGapLimit)
		}
		fmt.Fprintf(tw, "%*s%s\t%s\t%.1f %%\t%s\n", 2*r.Depth, "", r.Name, formatValue(r.US), share, note)
	}
	tw.Flush()
}
