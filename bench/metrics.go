package main

// Directions a metric can improve in.
const (
	lower  = "lower"
	higher = "higher"
)

// metricDef names one number the benchmark prints.
type metricDef struct {
	name   string
	unit   string
	better string
	// bound is the share of the reference value an end-to-end metric may
	// worsen by before -check calls it worse (widened holds the pairs that
	// carry more); floor is the absolute change below which a difference is
	// never a regression, so near-zero values do not flap. Per-layer metrics
	// have neither.
	bound, floor float64
	// listed is the bound BENCHMARK.json carries for the metric under
	// end_to_end: one number for every listed workload, under which the
	// build driver also holds their same-code spread. Zero keeps the metric
	// out of end_to_end and lists it under per_layer: that file's bounds are
	// purely relative and its values must never read 0, which the
	// allocation counts do on xfer_kernel_4k and fail_ratio does everywhere,
	// and ops_per_s spread up to 0.32 on the listed workloads, wider than
	// any bound the file may carry. -check gates all nine all the same.
	listed float64
	// moves names the end-to-end metric and workload a per-layer metric
	// should move.
	moves string
}

// endToEnd lists the metrics a caller of the public API would see, measured
// with the layer run off.
var endToEnd = []metricDef{
	{name: "op_p50_us", unit: "us", better: lower, bound: 0.10, listed: 0.25},
	{name: "ops_per_s", unit: "1/s", better: higher, bound: 0.10},
	{name: "cpu_us_per_op", unit: "us", better: lower, bound: 0.10, listed: 0.25},
	{name: "allocs_per_op", unit: "count", better: lower, bound: 0.05, floor: 0.5},
	{name: "alloc_kb_per_op", unit: "KB", better: lower, bound: 0.05, floor: 1},
	{name: "peak_rss_mb", unit: "MB", better: lower, bound: 0.10, listed: 0.10},
	{name: "copy_bytes_per_byte", unit: "ratio", better: lower, floor: 0.01, listed: 0.01},
	{name: "setup_s", unit: "s", better: lower, bound: 0.25, floor: 0.005, listed: 0.25},
	{name: "fail_ratio", unit: "ratio", better: lower, floor: 0.001},
}

// widened holds the (metric, workload) pairs whose bound is wider than the
// metric's own, because three same-code sets showed the pair cannot hold it:
// the value is the widest of the three spreads rounded up to 0.05, and never
// above 0.25. README.md ("Same-code spread") has the sets.
var widened = map[[2]string]float64{
	{"op_p50_us", "xfer_kernel_4k"}:  0.25,
	{"op_p50_us", "mcast_8x1m"}:      0.15,
	{"op_p50_us", "plan_closed_64k"}: 0.25,
	{"op_p50_us", "plan_open_64k"}:   0.25,

	{"ops_per_s", "xfer_kernel_4k"}:   0.25,
	{"ops_per_s", "xfer_kernel_4m"}:   0.25,
	{"ops_per_s", "xfer_network_16m"}: 0.25,
	{"ops_per_s", "mcast_8x1m"}:       0.25,
	{"ops_per_s", "plan_closed_64k"}:  0.25,

	{"cpu_us_per_op", "xfer_kernel_4k"}:   0.25,
	{"cpu_us_per_op", "xfer_kernel_4m"}:   0.20,
	{"cpu_us_per_op", "xfer_network_16m"}: 0.15,
	{"cpu_us_per_op", "mcast_8x1m"}:       0.15,
	{"cpu_us_per_op", "plan_closed_64k"}:  0.25,
	{"cpu_us_per_op", "plan_open_64k"}:    0.20,
}

// boundOn returns the bound the metric carries on the named workload.
func (m metricDef) boundOn(workload string) float64 {
	if b, ok := widened[[2]string{m.name, workload}]; ok {
		return b
	}
	return m.bound
}

// saturatedRounds counts a run's open-loop rounds that did not sustain the
// offered rate. -check compares it like an end-to-end metric, so a change that
// eats into saturatedBudget shows before it fails a run.
var saturatedRounds = metricDef{name: "gen.saturated_rounds", unit: "count", better: lower, floor: 1, moves: "validity of plan_open_64k; more than one fails the run"}

// roundLayer lists the per-layer metrics read from counters around the
// untraced rounds (exact counts and process statistics).
var roundLayer = []metricDef{
	{name: "kernel.syscalls_per_op", unit: "count", better: lower, moves: "op_p50_us @ xfer_kernel_4k"},
	{name: "kernel.ctx_switches_per_op", unit: "count", better: lower, moves: "op_p50_us @ xfer_kernel_4k"},
	{name: "sched.tasks_per_op", unit: "count", better: lower, moves: "bounds what sched can move at all; 0 on xfer_* and mcast_8x1m"},
	{name: "core.chan_hit_ratio", unit: "ratio", better: higher, moves: "op_p50_us everywhere if it drops below 1"},
	{name: "api.resident_mb", unit: "MB", better: lower, moves: "peak_rss_mb"},
	{name: "gen.late_p50_us", unit: "us", better: lower, moves: "validity of plan_open_64k"},
	{name: "gen.late_max_us", unit: "us", better: lower, moves: "validity of plan_open_64k"},
	{name: "gen.backlog_end", unit: "count", better: lower, moves: "validity of plan_open_64k"},
	saturatedRounds,
	{name: "proc.gc_cycles_per_s", unit: "1/s", better: lower, moves: "op_p50_us and tails @ xfer_network_16m, mcast_8x1m"},
	{name: "proc.gc_pause_us_per_op", unit: "us", better: lower, moves: "op_p50_us and tails @ xfer_network_16m, mcast_8x1m"},
}

// probeLayer lists the per-layer metrics the layer run measures by timing
// each package's exported functions at the workload's shape.
var probeLayer = []metricDef{
	{name: "wasm.call_ns", unit: "ns", better: lower, moves: "op_p50_us, cpu_us_per_op @ xfer_kernel_4k"},
	{name: "wasm.produce_mb_s", unit: "MB/s", better: higher, moves: "op_p50_us, ops_per_s @ plan_closed_64k, plan_open_64k"},
	{name: "wasm.memcopy_mb_s", unit: "MB/s", better: higher, moves: "user hop of plan_*; final ingress copy @ xfer_kernel_4m, xfer_network_16m"},
	{name: "wasm.instantiate_us", unit: "us", better: lower, moves: "setup_s everywhere"},
	{name: "abi.allocate_ns", unit: "ns", better: lower, moves: "op_p50_us @ xfer_kernel_4k"},
	{name: "abi.locate_ns", unit: "ns", better: lower, moves: "op_p50_us @ xfer_kernel_4k"},
	{name: "abi.write_mb_s", unit: "MB/s", better: higher, moves: "op_p50_us @ xfer_kernel_4m, xfer_network_16m"},
	{name: "pagebuf.copy_mb_s", unit: "MB/s", better: higher, moves: "op_p50_us, alloc_kb_per_op @ xfer_kernel_4m; not xfer_network_16m"},
	{name: "pagebuf.gift_ns_per_page", unit: "ns", better: lower, moves: "op_p50_us @ xfer_network_16m, mcast_8x1m"},
	{name: "pagebuf.retain_ns", unit: "ns", better: lower, moves: "op_p50_us @ mcast_8x1m"},
	{name: "pagebuf.ring_ns_per_page", unit: "ns", better: lower, moves: "op_p50_us @ xfer_kernel_4m, xfer_network_16m, mcast_8x1m"},
	{name: "kernel.syscall_ns", unit: "ns", better: lower, moves: "op_p50_us @ xfer_kernel_4k"},
	{name: "kernel.copy_path_mb_s", unit: "MB/s", better: higher, moves: "op_p50_us, cpu_us_per_op @ xfer_kernel_4m"},
	{name: "kernel.hose_mb_s", unit: "MB/s", better: higher, moves: "op_p50_us @ xfer_network_16m"},
	{name: "kernel.tee_ns_per_page", unit: "ns", better: lower, moves: "op_p50_us @ mcast_8x1m"},
	{name: "kernel.chan_setup_us", unit: "us", better: lower, moves: "setup_s; nothing in steady state"},
	{name: "sched.submit_run_ns", unit: "ns", better: lower, moves: "op_p50_us @ plan_open_64k (idle wake), plan_closed_64k"},
	{name: "sched.submit_ops_s", unit: "1/s", better: higher, moves: "ops_per_s @ plan_closed_64k"},
	{name: "core.transfer_us", unit: "us", better: lower, moves: "op_p50_us @ the matching workload"},
	{name: "core.self_us", unit: "us", better: lower, moves: "op_p50_us, ops_per_s @ xfer_kernel_4k"},
	{name: "core.bd_transfer_us", unit: "us", better: lower, moves: "cross-check of the kernel probes"},
	{name: "core.bd_wasmio_us", unit: "us", better: lower, moves: "cross-check of the abi and wasm probes"},
	{name: "core.bd_overlap_us", unit: "us", better: higher, moves: "op_p50_us @ xfer_network_16m (stage overlap)"},
	{name: "core.bd_setup_us", unit: "us", better: lower, moves: "must be 0 warm"},
	{name: "core.cold_transfer_us", unit: "us", better: lower, moves: "setup_s"},
	{name: "netsim.wire_us", unit: "us", better: lower, moves: "no wall-clock metric (modeled)"},
	{name: "api.modeled_latency_us", unit: "us", better: lower, moves: "no wall-clock metric (modeled)"},
	{name: "invoke.pick_ns", unit: "ns", better: lower, moves: "op_p50_us, ops_per_s @ plan_*"},
	{name: "invoke.enter_exit_ns", unit: "ns", better: lower, moves: "op_p50_us, ops_per_s @ plan_*"},
	{name: "invoke.local_ratio", unit: "ratio", better: higher, moves: "op_p50_us @ plan_* if it drops below 2/3"},
	{name: "api.op_us", unit: "us", better: lower, moves: "diagnostic: the op's p50 in the layer run"},
	{name: "api.op_p90_us", unit: "us", better: lower, moves: "diagnostic, not gated"},
	{name: "api.op_p99_us", unit: "us", better: lower, moves: "diagnostic, not gated"},
	{name: "api.op_max_us", unit: "us", better: lower, moves: "diagnostic, not gated"},
	{name: "api.self_us", unit: "us", better: lower, moves: "op_p50_us @ plan_*, xfer_kernel_4k"},
	{name: "api.plan_build_ns", unit: "ns", better: lower, moves: "op_p50_us, allocs_per_op @ plan_*"},
	{name: "api.submit_overhead_us", unit: "us", better: lower, moves: "op_p50_us, allocs_per_op @ plan_*"},
	{name: "api.release_ns", unit: "ns", better: lower, moves: "ops_per_s only (outside the op's latency)"},
	{name: "baseline.wasmedge_op_us", unit: "us", better: lower, moves: "nothing in Roadrunner's path"},
	{name: "baseline.runc_op_us", unit: "us", better: lower, moves: "nothing in Roadrunner's path"},
	{name: "baseline.wasmedge_ratio", unit: "ratio", better: higher, moves: "the paper's headline comparison"},
	{name: "serial.encode_mb_s", unit: "MB/s", better: higher, moves: "baseline.* only"},
	{name: "serial.decode_mb_s", unit: "MB/s", better: higher, moves: "baseline.* only"},
	{name: "api.trace_overhead_pct", unit: "%", better: lower, moves: "validity of the layer run"},
	{name: "api.budget_gap_pct", unit: "%", better: lower, moves: "validity of the budget table"},
}

// gatedEndToEnd returns the end-to-end metrics BENCHMARK.json bounds.
func gatedEndToEnd() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.listed > 0 {
			out = append(out, m)
		}
	}
	return out
}

// perLayer returns every metric BENCHMARK.json lists under per_layer: the
// ungated end-to-end metrics, the round counters and the probes.
func perLayer() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.listed == 0 {
			out = append(out, m)
		}
	}
	out = append(out, roundLayer...)
	return append(out, probeLayer...)
}

// roundMetrics returns every metric one untraced round emits.
func roundMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), roundLayer...)
}
