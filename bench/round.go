package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

const (
	// warmOps is the number of ops per client in one warm-up pass.
	warmOps = 8
	// warmPasses bounds the warm-up: it ends at the first pass that
	// establishes no channel and raises no residency peak.
	warmPasses = 8
	// minOps is the least number of ops a client measures, however short
	// the round, so a slow build still produces a sample.
	minOps = 3
	// maxFailures bounds the failure messages a round carries.
	maxFailures = 5
	// sampleCap bounds the latency samples one client keeps per round. A
	// round that takes more keeps every stride-th op instead, so the
	// recorder's memory (and with it peak_rss_mb) does not depend on how
	// fast the round ran. The median of 16 Ki or more samples is as good.
	sampleCap = 1 << 15
)

// processStart approximates process start for setup_s: package variables
// initialise before main, after the Go runtime is up.
var processStart = time.Now()

// roundSpec parameterises one measured round of one workload.
type roundSpec struct {
	w       *workload
	seconds float64
	seed    int64
	// begin is when set-up is counted from: process start in a child
	// process, the call itself when rounds share a process.
	begin time.Time
	// wrap, when set, is applied to every client after the warm-up: the
	// layer run uses it to record a span around each measured op.
	wrap func(c *client)
}

// roundResult is what one round emits: one JSON line in a child process.
type roundResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Clients   int      `json:"clients"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Ops       int64    `json:"ops"`
	Samples   int      `json:"samples"`
	Failures  []string `json:"failures,omitempty"`
	// Metrics holds every round metric (roundMetrics) and the op latency's
	// tails: api.op_p90_us, api.op_p99_us (0 unless ten samples lie beyond
	// it) and api.op_max_us. gen.saturated_rounds is 1 for an open-loop
	// round that did not sustain the offered rate.
	Metrics map[string]float64 `json:"metrics"`
}

// tally counts one client's ops. Each client owns one, so the measured
// loop shares nothing between goroutines.
type tally struct {
	attempted, failed, ops int64
	failures               []string
	// latency holds the sampled op latencies, preallocated so that
	// recording a sample allocates nothing inside the measured interval; one
	// op in stride is sampled.
	latency []time.Duration
	stride  int
	// elapsed is the client's own closed-loop interval: first op start to
	// last release.
	elapsed time.Duration
	// verifying is the time spent checksumming sampled ops. It is taken
	// out of the throughput interval and the CPU figure: the guest's
	// checksum runs at interpreter speed and would otherwise make
	// ops_per_s and cpu_us_per_op a benchmark of it.
	verifying time.Duration
}

// sample records one latency. A full buffer is thinned to every other
// sample and the stride doubled, so the kept samples stay evenly spread
// over the round however many ops it ends up holding.
func (t *tally) sample(lat time.Duration) {
	if len(t.latency) == cap(t.latency) {
		kept := t.latency[:0]
		for i := 0; i < len(t.latency); i += 2 {
			kept = append(kept, t.latency[i])
		}
		t.latency = kept
		t.stride *= 2
	}
	t.latency = append(t.latency, lat)
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.failures) < maxFailures {
		t.failures = append(t.failures, err.Error())
	}
}

// sampled reports whether client's i-th op is verified, one op in every on
// average: a seeded hash, so the program under test cannot tell a verified
// op from the rest.
func sampled(seed int64, client, i, every int) bool {
	x := uint64(seed) ^ uint64(client)<<40 ^ uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x%uint64(every) == 0
}

// step runs one op with its bookkeeping: the timed public calls, optional
// verification of every delivery, and the release of every region. It
// returns the op's latency (first public call to last return), the instant of
// that last return, and whether the op counted. Verification and releases
// come after that instant: they occupy the client, not the op.
func step(ctx context.Context, want uint64, c *client, t *tally, verify bool) (lat time.Duration, done time.Time, ok bool) {
	t.attempted++
	t0 := time.Now()
	err := c.op(ctx, c)
	done = time.Now()
	if err == nil && verify {
		err = c.verify(want)
		t.verifying += time.Since(done)
	}
	if rerr := c.releaseAll(); err == nil {
		err = rerr
	}
	if err != nil {
		t.fail(err)
		return 0, done, false
	}
	t.ops++
	return done.Sub(t0), done, true
}

// runClosed drives every client in a closed loop until each has spent dur on
// ops and releases.
func runClosed(ctx context.Context, spec roundSpec, r *rig, tallies []*tally, dur time.Duration) {
	var wg sync.WaitGroup
	want := r.want
	for ci, c := range r.clients {
		wg.Add(1)
		go func(ci int, c *client, t *tally) {
			defer wg.Done()
			start := time.Now()
			for i := 0; ctx.Err() == nil; i++ {
				// Verification is outside the interval: the round measures
				// dur of ops and releases however many ops were checked.
				if i >= minOps && time.Since(start)-t.verifying >= dur {
					break
				}
				lat, _, ok := step(ctx, want, c, t, sampled(spec.seed, ci, i, spec.w.verifyEvery))
				if ok && i%t.stride == 0 {
					t.sample(lat)
				}
			}
			t.elapsed = time.Since(start)
		}(ci, c, tallies[ci])
	}
	wg.Wait()
}

// runOpen offers the workload's seeded arrival schedule to the clients and
// returns the generator's observations. Latency runs from each op's due time
// to its last public return; verification and releases follow on the same
// client, outside the latency.
func runOpen(ctx context.Context, spec roundSpec, r *rig, tallies []*tally, dur time.Duration) openResult {
	due := arrivals(spec.seed, spec.w.rate, dur)
	ok := make([]bool, len(due))
	ol := openLoop{now: time.Now, sleep: time.Sleep}
	res := ol.run(due, dur, len(r.clients), func(ci, i int) (done time.Time) {
		_, done, ok[i] = step(ctx, r.want, r.clients[ci], tallies[ci], sampled(spec.seed, 0, i, spec.w.verifyEvery))
		return done
	})
	// Every successful op's latency goes to the first tally: the percentile
	// is taken over the union anyway.
	for i, lat := range res.latency {
		if ok[i] {
			tallies[0].latency = append(tallies[0].latency, lat)
		}
	}
	return res
}

// warmUp runs ops on every client at once until a whole pass establishes no
// new channel and raises no residency peak: channels warm, page pools and
// linear memories at their working size. Each client's first op is verified,
// so a round checks its deployment before it measures it.
func warmUp(ctx context.Context, r *rig, tallies []*tally) {
	for pass := 0; pass < warmPasses; pass++ {
		before, misses := r.usage().PeakResident, r.platform.ChannelStats().Misses
		var wg sync.WaitGroup
		for ci, c := range r.clients {
			wg.Add(1)
			go func(c *client, t *tally) {
				defer wg.Done()
				for i := 0; i < warmOps && ctx.Err() == nil; i++ {
					step(ctx, r.want, c, t, pass == 0 && i == 0)
				}
			}(c, tallies[ci])
		}
		wg.Wait()
		if pass > 0 && r.usage().PeakResident == before && r.platform.ChannelStats().Misses == misses {
			return
		}
	}
}

// runRound deploys the workload, warms it up, measures spec.seconds of the
// workload's loop between two readings of every counter, and checks the
// guards. Set-up (deploy, produce, warm-up) is timed as setup_s and kept out
// of every other metric.
func runRound(ctx context.Context, spec roundSpec) (*roundResult, error) {
	w := spec.w
	clients := clientCount(w)
	r, err := w.deploy(w, clients)
	if err != nil {
		return nil, fmt.Errorf("%s: deploy: %w", w.name, err)
	}
	defer r.close()
	r.want = w.expected()

	warmTallies := newTallies(clients)
	warmUp(ctx, r, warmTallies)
	warm := sumTallies(warmTallies)
	tallies := newTallies(clients)
	for _, t := range tallies {
		t.latency, t.stride = make([]time.Duration, 0, sampleCap), 1
	}
	if spec.wrap != nil {
		for _, c := range r.clients {
			spec.wrap(c)
		}
	}
	runtime.GC()
	res := &roundResult{
		Workload: w.name, Seed: spec.seed, Clients: clients,
		Attempted: warm.attempted, Failed: warm.failed, Failures: warm.failures,
	}
	setup := time.Since(spec.begin).Seconds()

	dur := time.Duration(spec.seconds * float64(time.Second))
	usage0, chans0, sched0 := r.usage(), r.platform.ChannelStats(), r.platform.SchedulerStats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, start := processCPU(), time.Now()
	var open openResult
	if w.loop == loopOpen {
		open = runOpen(ctx, spec, r, tallies, dur)
	} else {
		runClosed(ctx, spec, r, tallies, dur)
	}
	wall, cpu := time.Since(start), processCPU()-cpu0
	runtime.ReadMemStats(&ms1)
	usage1, chans1, sched1 := r.usage(), r.platform.ChannelStats(), r.platform.SchedulerStats()

	total := sumTallies(tallies)
	res.Attempted += total.attempted
	res.Failed += total.failed
	res.Ops = total.ops
	res.Failures = append(res.Failures, total.failures...)
	// Guards: accounted residency and the channel count must be where the
	// warm-up left them, or the round measured growth, not delivery.
	if usage1.PeakResident > usage0.PeakResident {
		res.guard(fmt.Errorf("guard: accounted residency grew %d -> %d bytes during the round", usage0.PeakResident, usage1.PeakResident))
	}
	if chans1.Active != chans0.Active {
		res.guard(fmt.Errorf("guard: cached channels changed %d -> %d during the round", chans0.Active, chans1.Active))
	}
	if len(res.Failures) > maxFailures {
		res.Failures = res.Failures[:maxFailures]
	}
	if total.ops == 0 {
		return res, fmt.Errorf("%s: no op completed: %v", w.name, res.Failures)
	}

	var lat []float64
	var rate float64
	for _, t := range tallies {
		for _, d := range t.latency {
			lat = append(lat, float64(d)/float64(time.Microsecond))
		}
	}
	sort.Float64s(lat)
	res.Samples = len(lat)
	ops := float64(total.ops)
	if w.loop == loopOpen {
		rate = float64(open.completedInWindow) / dur.Seconds()
	} else {
		for _, t := range tallies {
			if busy := t.elapsed - t.verifying; busy > 0 {
				rate += float64(t.ops) / busy.Seconds()
			}
		}
	}
	p99, _ := tailPercentile(lat, 0.99)
	delivered := ops * float64(w.deliveries) * float64(w.payload)
	res.Metrics = map[string]float64{
		"op_p50_us":           percentile(lat, 0.50),
		"ops_per_s":           rate,
		"cpu_us_per_op":       float64(cpu-total.verifying) / float64(time.Microsecond) / ops,
		"allocs_per_op":       float64(ms1.Mallocs-ms0.Mallocs) / ops,
		"alloc_kb_per_op":     float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / ops,
		"peak_rss_mb":         peakRSSMB(),
		"copy_bytes_per_byte": float64(usage1.TotalCopyBytes()-usage0.TotalCopyBytes()) / delivered,
		"setup_s":             setup,
		"fail_ratio":          float64(res.Failed) / float64(res.Attempted),

		"kernel.syscalls_per_op":     float64(usage1.Syscalls-usage0.Syscalls) / ops,
		"kernel.ctx_switches_per_op": float64(usage1.ContextSwitches-usage0.ContextSwitches) / ops,
		"sched.tasks_per_op":         float64(sched1.Submitted-sched0.Submitted) / ops,
		"core.chan_hit_ratio":        ratio(chans1.Hits-chans0.Hits, chans1.Misses-chans0.Misses),
		"api.resident_mb":            float64(usage1.PeakResident) / (1 << 20),
		"proc.gc_cycles_per_s":       float64(ms1.NumGC-ms0.NumGC) / wall.Seconds(),
		"proc.gc_pause_us_per_op":    float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e3 / ops,
		"gen.late_p50_us":            0,
		"gen.late_max_us":            0,
		"gen.backlog_end":            0,
		"gen.saturated_rounds":       0,

		"api.op_p90_us": percentile(lat, 0.90),
		"api.op_p99_us": p99,
		"api.op_max_us": percentile(lat, 1),
	}
	if w.loop == loopOpen {
		late := make([]float64, len(open.late))
		for i, d := range open.late {
			late[i] = float64(d) / float64(time.Microsecond)
		}
		sort.Float64s(late)
		res.Metrics["gen.late_p50_us"] = percentile(late, 0.50)
		res.Metrics["gen.late_max_us"] = percentile(late, 1)
		res.Metrics["gen.backlog_end"] = float64(len(open.late) - open.completedInWindow)
		if saturated(len(open.late), open.completedInWindow, len(tallies)) {
			res.Metrics["gen.saturated_rounds"] = 1
		}
	}
	return res, nil
}

// guard records a violated round guard as a failed op.
func (res *roundResult) guard(err error) {
	res.Attempted++
	res.Failed++
	res.Failures = append(res.Failures, err.Error())
}

// ratio returns hits ÷ (hits+misses), and 1 when nothing was counted.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 1
	}
	return float64(hits) / float64(hits+misses)
}

func newTallies(n int) []*tally {
	ts := make([]*tally, n)
	for i := range ts {
		ts[i] = &tally{}
	}
	return ts
}

func sumTallies(ts []*tally) tally {
	var sum tally
	for _, t := range ts {
		sum.attempted += t.attempted
		sum.failed += t.failed
		sum.ops += t.ops
		sum.verifying += t.verifying
		sum.failures = append(sum.failures, t.failures...)
	}
	if len(sum.failures) > maxFailures {
		sum.failures = sum.failures[:maxFailures]
	}
	return sum
}
