package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentileCeilNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{7}, 0.99, 7},
		{ten, 0.50, 5},  // ceil(5.0) = 5th
		{ten, 0.51, 6},  // ceil(5.1) = 6th: truncation would say 5
		{ten, 0.90, 9},  // ceil(9.0) = 9th
		{ten, 0.91, 10}, // ceil(9.1) = 10th
		{ten, 0.99, 10},
		{ten, 1, 10},
		{ten, 0, 1},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
	} {
		if got := percentile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.sorted, tc.q, got, tc.want)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if _, ok := tailPercentile(mk(999), 0.99); ok {
		t.Error("999 samples leave 9 beyond p99; want no p99")
	}
	if v, ok := tailPercentile(mk(1000), 0.99); !ok || v != 990 {
		t.Errorf("1000 samples: p99 = %g, %v; want 990, true", v, ok)
	}
	if _, ok := tailPercentile(nil, 0.99); ok {
		t.Error("empty sample has no p99")
	}
}

func TestSummaryOverRounds(t *testing.T) {
	for _, tc := range []struct {
		rounds         []float64
		median, q1, q3 float64
	}{
		// q1 and q3 are what Python's statistics.quantiles(rounds, n=4) gives.
		{[]float64{5}, 5, 5, 5},
		{[]float64{4, 2}, 3, 1.5, 4.5},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{8, 1, 7, 2, 6, 3, 5, 4}, 4.5, 2.25, 6.75},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 55, 27.5, 82.5},
		{[]float64{1, 1, 1, 9}, 1, 1, 7},
	} {
		in := append([]float64(nil), tc.rounds...)
		s := summarize(tc.rounds)
		if s.Value != tc.median || s.Q1 != tc.q1 || s.Q3 != tc.q3 {
			t.Errorf("summarize(%v) = median %g [%g, %g], want %g [%g, %g]", in, s.Value, s.Q1, s.Q3, tc.median, tc.q1, tc.q3)
		}
		if !reflect.DeepEqual(in, tc.rounds) {
			t.Errorf("summarize reordered its input: %v -> %v", in, tc.rounds)
		}
	}
	s := summarize([]float64{3, 9, 1})
	if s.Min != 1 || s.Max != 9 {
		t.Errorf("min, max = %g, %g; want 1, 9", s.Min, s.Max)
	}
}

func TestAggregateReportsMediansAndSumsCounts(t *testing.T) {
	w := workloads[len(workloads)-1]
	if w.loop != loopOpen {
		t.Fatal("the last workload is expected to be the open loop")
	}
	round := func(p50, saturated float64, attempted, failed int64) *roundResult {
		return &roundResult{Attempted: attempted, Failed: failed, Ops: attempted - failed,
			Metrics: map[string]float64{"op_p50_us": p50, "gen.saturated_rounds": saturated, "fail_ratio": float64(failed) / float64(attempted)}}
	}
	// Three rounds disturbed 3x do not move the median of eight; they would
	// move the mean by 75 %.
	wr := aggregate(w, []*roundResult{
		round(100, 0, 10, 0), round(300, 1, 10, 0), round(102, 0, 10, 0), round(306, 0, 10, 0),
		round(98, 0, 10, 0), round(294, 1, 10, 1), round(101, 0, 10, 0), round(99, 0, 10, 0),
	})
	if v := wr.Metrics["op_p50_us"].Value; v != 101.5 {
		t.Errorf("op_p50_us = %g, want the median over rounds, 101.5", v)
	}
	if wr.Rounds != 8 || wr.Ops != 79 || wr.Attempted != 80 || wr.Failed != 1 {
		t.Errorf("rounds, ops, attempted, failed = %d, %d, %d, %d; want 8, 79, 80, 1", wr.Rounds, wr.Ops, wr.Attempted, wr.Failed)
	}
	// A median would hide the one failed op and the two saturated rounds.
	if v := wr.Metrics["fail_ratio"].Value; v != 1.0/80 {
		t.Errorf("fail_ratio = %g, want failed / attempted over the run, 1/80", v)
	}
	if v := wr.Metrics["gen.saturated_rounds"].Value; v != 2 {
		t.Errorf("gen.saturated_rounds = %g, want the count over the run, 2", v)
	}
}

func TestNamesUnitsAndReasonsAreWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is malformed", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if w.verifyEvery < 1 || w.deliveries < 1 || w.fan < 1 || len(w.hops) == 0 {
			t.Errorf("workload %s: incomplete definition %+v", w.name, w)
		}
	}
	defs := append(append([]metricDef(nil), endToEnd...), roundLayer...)
	for _, m := range append(defs, probeLayer...) {
		check("metric", m.name)
		if !unit.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q is malformed", m.name, m.unit)
		}
		if m.better != lower && m.better != higher {
			t.Errorf("metric %s: better = %q", m.name, m.better)
		}
		if m.bound < 0 || m.bound > 0.25 || m.listed < 0 || m.listed > 0.25 {
			t.Errorf("metric %s: bounds %g and %g outside [0, 0.25]", m.name, m.bound, m.listed)
		}
	}
	for pair, b := range widened {
		var m *metricDef
		for i := range endToEnd {
			if endToEnd[i].name == pair[0] {
				m = &endToEnd[i]
			}
		}
		if _, err := workloadByName(pair[1]); m == nil || err != nil {
			t.Errorf("widened pair %v names no end-to-end metric and workload", pair)
			continue
		}
		if b <= m.bound || b > 0.25 {
			t.Errorf("widened pair %v: bound %g must lie above the metric's own %g and within 0.25", pair, b, m.bound)
		}
	}
	if n := len(perLayer()); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128 fit BENCHMARK.json", n)
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var onDisk benchmarkSpec
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := currentSpec(); !reflect.DeepEqual(onDisk, want) {
		got, _ := json.Marshal(onDisk)
		exp, _ := json.Marshal(want)
		t.Errorf("BENCHMARK.json differs from the tables in this package (regenerate with `go run ./bench -spec`)\n file: %s\n code: %s", got, exp)
	}
	if onDisk.RunSeconds < 1 || onDisk.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", onDisk.RunSeconds)
	}
	var setup bool
	for _, m := range onDisk.EndToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("end_to_end must hold setup_s in seconds, lower is better")
	}
}

// signedMetrics may legitimately read below zero: they are differences.
var signedMetrics = map[string]bool{
	"core.self_us": true, "api.self_us": true, "api.submit_overhead_us": true,
	"api.trace_overhead_pct": true, "api.budget_gap_pct": true,
}

func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke run moves 16 MiB payloads through the interpreter")
	}
	var out bytes.Buffer
	res, err := runSmoke(context.Background(), &out)
	if err != nil {
		t.Fatalf("smoke run: %v\n%s", err, out.String())
	}
	for _, w := range workloads {
		wr := res.Workloads[w.name]
		if wr == nil {
			t.Fatalf("%s: no result", w.name)
		}
		value := func(name string) float64 {
			t.Helper()
			v, ok := wr.value(name)
			if !ok {
				t.Errorf("%s: metric %s missing", w.name, name)
			}
			return v
		}
		for _, m := range append(roundMetrics(), probeLayer...) {
			v := value(m.name)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v is not finite", w.name, m.name, v)
			}
			if v < 0 && !signedMetrics[m.name] {
				t.Errorf("%s: %s = %v is negative", w.name, m.name, v)
			}
			if !strings.Contains(out.String(), m.name) {
				t.Errorf("%s is not printed by name", m.name)
			}
		}
		if v := value("fail_ratio"); v != 0 {
			t.Errorf("%s: fail_ratio = %g (%v), want 0", w.name, v, wr.Failures)
		}
		// An all-local multicast creates and closes its hose pipe per call
		// (README "First run"); every other workload pays no set-up warm.
		if v := value("core.bd_setup_us"); v != 0 && w.name != "mcast_8x1m" {
			t.Errorf("%s: core.bd_setup_us = %g, want 0 on warm channels", w.name, v)
		}
		if v := value("core.chan_hit_ratio"); v != 1 {
			t.Errorf("%s: core.chan_hit_ratio = %g, want 1 after warm-up", w.name, v)
		}
		switch {
		case strings.HasPrefix(w.name, "xfer_"), w.name == "mcast_8x1m":
			if v := value("sched.tasks_per_op"); v != 0 {
				t.Errorf("%s: sched.tasks_per_op = %g, want 0", w.name, v)
			}
		case strings.HasPrefix(w.name, "plan_"):
			if v := value("sched.tasks_per_op"); v != 3 {
				t.Errorf("%s: sched.tasks_per_op = %g, want 3 (one task per DAG node)", w.name, v)
			}
			if v := value("invoke.local_ratio"); math.Abs(v-2.0/3) > 1e-9 {
				t.Errorf("%s: invoke.local_ratio = %g, want 2/3 (kernel, network, user)", w.name, v)
			}
		}
		if len(wr.Budget) == 0 || wr.Budget[0].Name != "api.op_us" {
			t.Errorf("%s: no budget table", w.name)
		}
	}
	if v := res.Workloads["xfer_kernel_4m"].Metrics["copy_bytes_per_byte"].Value; math.Abs(v-2) > 0.01 {
		t.Errorf("xfer_kernel_4m: copy_bytes_per_byte = %g, want 2 (two kernel copies)", v)
	}
	if v := res.Workloads["xfer_network_16m"].Metrics["copy_bytes_per_byte"].Value; math.Abs(v-1) > 0.01 {
		t.Errorf("xfer_network_16m: copy_bytes_per_byte = %g, want 1 (the copy into the target VM)", v)
	}
}

// smallCopy returns the named workload with its payload cut to n bytes, for
// tests that exercise the loop, not the bytes.
func smallCopy(t *testing.T, name string, n int) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := *w
	c.payload = n
	return &c
}

func TestRoundGuardCatchesUnreleasedRegions(t *testing.T) {
	w := smallCopy(t, "plan_closed_64k", 64<<10)
	// A client that forgets its regions is the BenchmarkChainThreeModes
	// trap: every op grows the guests' linear memories.
	leak := func(c *client) {
		op := c.op
		c.op = func(ctx context.Context, c *client) error {
			err := op(ctx, c)
			c.held = c.held[:0]
			return err
		}
	}
	rr, err := runRound(context.Background(), roundSpec{w: w, seconds: 0.05, seed: 1, begin: time.Now(), wrap: leak})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Failed == 0 || !strings.Contains(strings.Join(rr.Failures, "\n"), "residency grew") {
		t.Errorf("leaking round: failed = %d, failures = %v; want the residency guard to fire", rr.Failed, rr.Failures)
	}
	if rr.Metrics["fail_ratio"] <= 0 {
		t.Errorf("fail_ratio = %g, want the guard to show in it", rr.Metrics["fail_ratio"])
	}
}

func TestReleaseIdiomKeepsMemoryFlat(t *testing.T) {
	// Ten times more iterations must not cost more memory per op: with every
	// region released inside the iteration, neither the Go heap per op nor
	// the guests' accounted residency depends on the iteration count.
	for _, name := range []string{"xfer_kernel_4k", "plan_closed_64k"} {
		w := smallCopy(t, name, 16<<10)
		r, err := w.deploy(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		ctx, c, tl, want := context.Background(), r.clients[0], &tally{}, w.expected()
		run := func(n int) (kbPerOp float64, resident int64) {
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			for i := 0; i < n; i++ {
				step(ctx, want, c, tl, i%verifyPeriodInTests == 0)
			}
			runtime.ReadMemStats(&m1)
			return float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / float64(n), r.usage().PeakResident
		}
		run(20) // warm-up: channels, page pool, linear memories
		kb1, res1 := run(50)
		kb10, res10 := run(500)
		r.close()
		if tl.failed > 0 {
			t.Fatalf("%s: %d ops failed: %v", name, tl.failed, tl.failures)
		}
		if res10 > res1 {
			t.Errorf("%s: accounted residency grew %d -> %d bytes over 10x the iterations", name, res1, res10)
		}
		if kb10 > 1.5*kb1+1 {
			t.Errorf("%s: alloc_kb_per_op %.2f over 500 ops vs %.2f over 50: memory per op grows with the iteration count", name, kb10, kb1)
		}
	}
}

const verifyPeriodInTests = 8

func TestArrivalsAreSeededAndPoisson(t *testing.T) {
	a := arrivals(7, 1000, 2*time.Second)
	if !reflect.DeepEqual(a, arrivals(7, 1000, 2*time.Second)) {
		t.Error("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, arrivals(8, 1000, 2*time.Second)) {
		t.Error("two seeds gave the same schedule")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals in 2 s at 1000/s, want about 2000", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("due times go backwards at %d", i)
		}
	}
	if last := a[len(a)-1]; last >= 2*time.Second {
		t.Errorf("arrival at %v lies outside the window", last)
	}
}

// fakeClock is a clock that only moves when someone sleeps on it or an op
// takes time on it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

func TestOpenLoopChargesStallToQueuedOps(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	ol := openLoop{now: clock.Now, sleep: clock.Advance}
	const stall, service = 10 * time.Millisecond, 100 * time.Microsecond
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	// After its last public return an op still verifies and releases: that
	// keeps the client busy, so it delays the ops behind, but it is not in
	// the op's own latency.
	const after = 100 * time.Millisecond
	res := ol.run(due, 4*time.Millisecond, 1, func(_, i int) time.Time {
		took := service
		if i == 0 {
			took = stall
		}
		clock.Advance(took)
		done := clock.Now()
		clock.Advance(after)
		return done
	})
	// One client: ops 1..3 cannot start before the stalled op 0 and what the
	// client did after it are over, so measured from their due times each
	// carries what is left of both. Timed from dispatch or service start
	// they would read ~100 us.
	for i := 1; i < len(due); i++ {
		if min := stall + after + service - due[i]; res.latency[i] < min {
			t.Errorf("op %d: latency %v, want at least %v: the stall ahead of it must be charged to it", i, res.latency[i], min)
		}
	}
	// The generator sleeps on the same clock, so the bounds leave room for
	// its four milliseconds.
	if res.latency[0] < stall || res.latency[0] >= stall+after {
		t.Errorf("stalled op: latency %v, want %v and less than %v more: due time to last public return, without what the client did after it", res.latency[0], stall, after)
	}
	for i, late := range res.late {
		if late < 0 {
			t.Errorf("op %d dispatched %v before it was due", i, -late)
		}
	}
}

func TestSaturated(t *testing.T) {
	for _, tc := range []struct {
		offered, completed, clients int
		want                        bool
	}{
		{2000, 2000, 2, false},
		{2000, 1961, 2, false}, // 39 behind: within 2 %
		{2000, 1950, 2, true},  // completed rate below 0.98 x offered
		{50, 43, 2, false},     // a short window is not judged on a few stragglers
		{50, 40, 2, true},
		{0, 0, 2, false},
	} {
		if got := saturated(tc.offered, tc.completed, tc.clients); got != tc.want {
			t.Errorf("saturated(%d, %d, %d) = %v, want %v", tc.offered, tc.completed, tc.clients, got, tc.want)
		}
	}
}

func TestCheckVerdicts(t *testing.T) {
	tight := func(v float64) summary { return summarize([]float64{v, v, v, v}) }
	wide := func(vals ...float64) summary { return summarize(vals) }
	p50 := endToEnd[0]
	rate := endToEnd[1]
	allocs := endToEnd[3]
	if p50.name != "op_p50_us" || rate.name != "ops_per_s" || allocs.name != "allocs_per_op" {
		t.Fatal("endToEnd order changed; fix this test's picks")
	}
	for _, tc := range []struct {
		name string
		m    metricDef
		a, b summary
		want string
	}{
		{"equal", p50, tight(100), tight(100), verdictOK},
		{"within bound", p50, tight(100), tight(100 * (1 + p50.bound - 0.01)), verdictOK},
		{"beyond bound", p50, tight(100), tight(100 * (1 + p50.bound + 0.05)), verdictWorse},
		{"better is ok", p50, tight(100), tight(50), verdictOK},
		{"higher-is-better falls", rate, tight(1000), tight(700), verdictWorse},
		{"higher-is-better rises", rate, tight(1000), tight(2000), verdictOK},
		{"floor absorbs near-zero", allocs, tight(0), tight(0.4), verdictOK},
		{"floor exceeded", allocs, tight(0), tight(0.6), verdictWorse},
		{"disturbed rounds, overlapping", p50, wide(80, 100, 160, 200), wide(90, 130, 190, 210), verdictUnresolved},
		{"disturbed rounds, every round worse", p50, wide(80, 100, 160, 200), wide(300, 340, 460, 500), verdictWorse},
		{"disturbed rounds, every round better", p50, wide(80, 100, 160, 200), wide(20, 30, 40, 50), verdictOK},
		{"disturbed rounds, same values", p50, wide(80, 100, 160, 200), wide(80, 100, 160, 200), verdictUnresolved},
	} {
		if got, _, _ := judge(tc.m, tc.m.bound, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	// A widened pair tolerates what the metric's own bound does not.
	if got, _, _ := judge(p50, 0.25, tight(100), tight(120)); got != verdictOK {
		t.Errorf("+20 %% under a bound widened to 0.25: verdict %q, want ok", got)
	}
}

func TestCheckRefusesDifferentEnvironments(t *testing.T) {
	base := envBlock{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "a", Seed: 1, Rounds: 8, RoundSeconds: 2}
	if err := comparable(base, base); err != nil {
		t.Errorf("identical environments: %v", err)
	}
	other := base
	other.Commit = "b" // comparing two commits is the point
	if err := comparable(base, other); err != nil {
		t.Errorf("different commits must compare: %v", err)
	}
	for field, mutate := range map[string]func(*envBlock){
		"NumCPU":     func(e *envBlock) { e.NumCPU = 8 },
		"GOMAXPROCS": func(e *envBlock) { e.GOMAXPROCS = 1 },
		"Go version": func(e *envBlock) { e.GoVersion = "go1.25.0" },
		"ROUNDS":     func(e *envBlock) { e.Rounds = 4 },
		"ROUND_S":    func(e *envBlock) { e.RoundSeconds = 1 },
		"seed":       func(e *envBlock) { e.Seed = 2 },
	} {
		other := base
		mutate(&other)
		if err := comparable(base, other); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("differing %s: err = %v, want a refusal naming it", field, err)
		}
	}
}

func TestCheckFilesEndToEnd(t *testing.T) {
	mk := func(p50 float64) *result {
		res := &result{Schema: schemaVersion, Env: envBlock{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go", Seed: 1, Rounds: 4, RoundSeconds: 2}, Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			wr := &workloadResult{Metrics: map[string]summary{}}
			for _, m := range checked(w) {
				wr.Metrics[m.name] = summarize([]float64{1, 1, 1, 1})
			}
			wr.Metrics["op_p50_us"] = summarize([]float64{p50, p50, p50, p50})
			res.Workloads[w.name] = wr
		}
		return res
	}
	dir := t.TempDir()
	write := func(name string, res *result) string {
		path := dir + "/" + name
		if err := writeResult(path, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", mk(100)), write("same.json", mk(101)), write("slow.json", mk(200))
	var out bytes.Buffer
	if err := checkFiles(&out, a, same); err != nil {
		t.Errorf("same-code files: %v\n%s", err, out.String())
	}
	// One row more on the open loop: its saturated rounds.
	if rows := strings.Count(out.String(), "\n"); rows != len(workloads)*len(endToEnd)+1+2 {
		t.Errorf("%d lines, want one row per (metric, workload) plus header and tally:\n%s", rows, out.String())
	}
	out.Reset()
	if err := checkFiles(&out, a, slow); err == nil || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 2x slower p50 passed the check: err = %v\n%s", err, out.String())
	}
}
