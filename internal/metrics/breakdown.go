package metrics

import (
	"fmt"
	"strings"
	"time"
)

// Breakdown decomposes one data-transfer latency into the components the
// paper plots in Fig. 6a: raw transfer time (kernel + wire), serialization /
// deserialization time, the Wasm VM I/O penalty Roadrunner pays to move data
// in and out of linear memory, and the modeled network time.
//
// CPU-side components are measured wall-clock durations of real work; Network
// is modeled from link bandwidth and RTT (see internal/netsim).
type Breakdown struct {
	Setup         time.Duration // control-plane channel establishment (cold transfers only)
	Transfer      time.Duration // kernel-path time: syscalls, buffer moves, copies
	Serialization time.Duration // encode + decode time (zero for Roadrunner paths)
	WasmIO        time.Duration // linear-memory access through the shim ABI
	Network       time.Duration // modeled wire time (bandwidth share + RTT)
	// Overlap is the wall-clock time the transfer's source and target
	// pipeline stages ran concurrently (zero for a single-chunk payload).
	// The per-component durations above are measured within each stage, so
	// their sum double-counts the overlapped window; Total subtracts it,
	// making the reported latency the pipeline's critical path rather than
	// the sum of sequential laps.
	Overlap time.Duration
}

// Total sums every component and credits back the overlapped window, so the
// result is the transfer's critical-path latency.
func (b Breakdown) Total() time.Duration {
	t := b.Setup + b.Transfer + b.Serialization + b.WasmIO + b.Network - b.Overlap
	if t < 0 {
		return 0
	}
	return t
}

// Add returns the component-wise sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		Setup:         b.Setup + o.Setup,
		Transfer:      b.Transfer + o.Transfer,
		Serialization: b.Serialization + o.Serialization,
		WasmIO:        b.WasmIO + o.WasmIO,
		Network:       b.Network + o.Network,
		Overlap:       b.Overlap + o.Overlap,
	}
}

// String renders the non-zero components.
func (b Breakdown) String() string {
	var parts []string
	add := func(name string, d time.Duration) {
		if d != 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", name, d))
		}
	}
	add("setup", b.Setup)
	add("transfer", b.Transfer)
	add("serialization", b.Serialization)
	add("wasmIO", b.WasmIO)
	add("network", b.Network)
	add("overlap", b.Overlap)
	if len(parts) == 0 {
		return "breakdown{}"
	}
	return "breakdown{" + strings.Join(parts, " ") + "}"
}

// TransferReport describes one completed data transfer between two functions:
// how many bytes moved, the latency breakdown, and the resource usage charged
// while it ran.
type TransferReport struct {
	Bytes     int64
	Breakdown Breakdown
	Usage     Usage
	Mode      string // "user", "kernel", "network", "http", ...
}

// Latency is the end-to-end duration from send initiation at the source to
// receipt at the target, matching the paper's latency metric (§6.1a).
func (r TransferReport) Latency() time.Duration { return r.Breakdown.Total() }

// Throughput extrapolates requests per second from a single transfer, as the
// paper does for sub-second operations (§6.1b).
func (r TransferReport) Throughput() float64 {
	lat := r.Latency()
	if lat <= 0 {
		return 0
	}
	return float64(time.Second) / float64(lat)
}

// Merge combines reports of transfers that ran in sequence.
func (r TransferReport) Merge(o TransferReport) TransferReport {
	return TransferReport{
		Bytes:     r.Bytes + o.Bytes,
		Breakdown: r.Breakdown.Add(o.Breakdown),
		Usage:     r.Usage.Add(o.Usage),
		Mode:      r.Mode,
	}
}

// Stopwatch measures elapsed durations with an injectable clock so tests can
// run deterministically (see the style guide's advice against mutable
// globals: the clock is injected, not patched).
type Stopwatch struct {
	now   func() time.Time
	start time.Time
}

// NewStopwatch returns a stopwatch using the given clock; nil means
// time.Now.
func NewStopwatch(now func() time.Time) *Stopwatch {
	if now == nil {
		now = time.Now
	}
	return &Stopwatch{now: now, start: now()}
}

// Lap returns the duration since the last Lap (or since creation) and
// restarts the interval.
func (s *Stopwatch) Lap() time.Duration {
	t := s.now()
	d := t.Sub(s.start)
	s.start = t
	return d
}
