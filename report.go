package roadrunner

import "github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"

// Breakdown decomposes one transfer's latency into the components the paper
// reports (Fig. 6a): kernel-path transfer time, serialization time, the Wasm
// VM I/O penalty, modeled network time, and guest compute. Overlap is the
// wall-clock window the transfer's source and target pipeline stages ran
// concurrently; Total credits it back, so Latency reports the pipeline's
// critical path rather than the sum of sequential laps.
type Breakdown = metrics.Breakdown

// Usage reports the resources one transfer consumed across the sandboxes
// involved, mirroring the paper's cgroup-level measurements (§6.1c).
type Usage = metrics.Usage

// Report describes one completed transfer: Bytes moved on the wire
// (serialized size for codec paths, raw payload size for Roadrunner paths),
// the data path taken as Mode ("user", "kernel", "network",
// "kernel-multicast", "network-multicast", or "plan" for a Result's merged
// report), the latency Breakdown and the resource Usage. Latency is the
// end-to-end duration (§6.1a), Throughput extrapolates requests per second
// from it (§6.1b), and Merge combines reports of sequentially executed
// transfers.
type Report = metrics.TransferReport
