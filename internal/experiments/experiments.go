// Package experiments regenerates every table and figure of the paper's
// evaluation (§6): the motivation measurements (Fig. 2), the inter-node
// latency breakdown (Fig. 6), the intra- and inter-node payload sweeps
// (Fig. 7, Fig. 8) and the fan-out scalability studies (Fig. 9, Fig. 10).
//
// Each runner builds a fresh simulated deployment per data point, executes
// the paper's workload (chained I/O-bound functions exchanging serialized
// strings, §6.1), and reports the same metrics the paper plots: total and
// serialization latency, extrapolated requests/second, total/user/kernel CPU
// share, and RAM. The "serialization latency" of the Roadrunner systems is
// their data-access (Wasm I/O) time, since their paths carry no codec — the
// quantity the paper's serialization panels show for Roadrunner.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// MB is 10^6 bytes, matching the paper's payload-size axis.
const MB = 1_000_000

// Options scales the experiment sweeps. The zero value yields laptop-scale
// defaults; Full() yields the paper's axes (minutes of runtime).
type Options struct {
	// SizesMB are the payload sizes for the Fig. 7/8 sweeps.
	SizesMB []int
	// Fig6PayloadMB is the single payload of the Fig. 6 breakdown
	// (paper: 100 MB).
	Fig6PayloadMB int
	// FanoutDegrees are the Fig. 9/10 fan-out axes (paper: up to 100).
	FanoutDegrees []int
	// FanoutPayloadMB is the per-transfer payload in the fan-out
	// experiments (paper: 10 MB).
	FanoutPayloadMB int
	// Runs averages every point over this many repetitions.
	Runs int
}

// withDefaults fills unset fields with scaled defaults.
func (o Options) withDefaults() Options {
	if len(o.SizesMB) == 0 {
		o.SizesMB = []int{1, 4, 16, 64}
	}
	if o.Fig6PayloadMB == 0 {
		o.Fig6PayloadMB = 16
	}
	if len(o.FanoutDegrees) == 0 {
		o.FanoutDegrees = []int{1, 5, 10, 25, 50}
	}
	if o.FanoutPayloadMB == 0 {
		o.FanoutPayloadMB = 1
	}
	if o.Runs <= 0 {
		o.Runs = 1
	}
	return o
}

// Full returns the paper's axes: 1–500 MB sweeps, 10 MB fan-outs to degree
// 100, 100 MB breakdown.
func Full() Options {
	return Options{
		SizesMB:         []int{1, 10, 50, 100, 250, 500},
		Fig6PayloadMB:   100,
		FanoutDegrees:   []int{1, 10, 25, 50, 75, 100},
		FanoutPayloadMB: 10,
		Runs:            1,
	}
}

// Quick returns the smallest meaningful axes, for tests and `go test -bench`.
func Quick() Options {
	return Options{
		SizesMB:         []int{1, 4},
		Fig6PayloadMB:   4,
		FanoutDegrees:   []int{1, 8},
		FanoutPayloadMB: 1,
		Runs:            1,
	}
}

// SchemaVersion identifies the layout of roadrunner-bench output (both the
// table header line and the -json document), so CI benchmark smoke runs can
// be diffed across PRs. Version 3 added the breakdown's Setup component and
// the chancache warm/cold experiment; version 4 added the breakdown's
// Overlap component (critical-path credit of the staged pipeline) and the
// pipeline chain experiment; version 5 added the placement experiment
// (locality vs round-robin routing over replicated instance pools);
// version 6 added the failure experiment (aggregate throughput with 1 of
// 16 replicas killed mid-load, pinned to proportional degradation);
// version 7 added the hotpath experiment (aggregate small-transfer
// throughput, 1..GOMAXPROCS workers, sharded run queues vs the
// single-queue scheduler baseline); version 8 added the fanoutshare
// experiment (same-node delivery throughput vs fan-out degree, shared
// egress vs the per-target ablation, with the 3x speedup bound at
// degree >= 8).
const SchemaVersion = 8

// Point is one (system, x) measurement carrying every panel of the paper's
// figure grids.
type Point struct {
	System string  `json:"system"`
	X      float64 `json:"x"` // payload MB or fan-out degree

	Latency    time.Duration `json:"latency_ns"`     // panel (a): total latency
	RPS        float64       `json:"rps"`            // panel (b): total throughput
	SerLatency time.Duration `json:"ser_latency_ns"` // panel (c): serialization latency
	SerRPS     float64       `json:"ser_rps"`        // panel (d): serialization throughput

	CPUTotal  float64 `json:"cpu_total_pct"`  // panel (e): total CPU %
	CPUUser   float64 `json:"cpu_user_pct"`   // panel (f): user-space CPU %
	CPUKernel float64 `json:"cpu_kernel_pct"` // panel (g): kernel-space CPU %
	RAMMB     float64 `json:"ram_mb"`         // panel (h): memory usage

	Breakdown roadrunner.Breakdown `json:"breakdown"` // component decomposition (Fig. 6a)
}

// Result is one regenerated figure.
type Result struct {
	ID string `json:"id"`
	// Mode names the transfer regime the experiment exercises (e.g.
	// "intra-node", "inter-node", "fanout-inter", "coldstart").
	Mode   string   `json:"mode"`
	Title  string   `json:"title"`
	XLabel string   `json:"xlabel"`
	Points []Point  `json:"points"`
	Notes  []string `json:"notes,omitempty"`
}

// Print renders the result as an aligned table, prefixed by the
// schema/mode identification line CI diffs key on.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "# schema_version=%d id=%s mode=%s\n", SchemaVersion, r.ID, r.Mode)
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "system\t%s\tlatency\trps\tser.latency\tser.rps\tcpu%%\tuser%%\tkernel%%\tram(MB)\n", r.XLabel)
	for _, p := range r.Points {
		fmt.Fprintf(tw, "%s\t%g\t%s\t%.2f\t%s\t%.0f\t%.3f\t%.3f\t%.3f\t%.1f\n",
			p.System, p.X,
			fmtDur(p.Latency), p.RPS,
			fmtDur(p.SerLatency), p.SerRPS,
			p.CPUTotal, p.CPUUser, p.CPUKernel, p.RAMMB)
	}
	tw.Flush()
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "0"
	}
	return fmt.Sprintf("%.6gs", d.Seconds())
}

// pointFrom derives a Point from one transfer report — Roadrunner's or a
// baseline's, the same type.
func pointFrom(system string, x float64, rep roadrunner.Report) Point {
	latency := rep.Latency()
	serLatency := rep.Breakdown.Serialization + rep.Breakdown.WasmIO
	p := Point{
		System:     system,
		X:          x,
		Latency:    latency,
		SerLatency: serLatency,
		RAMMB:      float64(rep.Usage.PeakResident) / MB,
		Breakdown:  rep.Breakdown,
	}
	if latency > 0 {
		p.RPS = float64(time.Second) / float64(latency)
		p.CPUUser = float64(rep.Usage.UserCPU) / float64(latency) * 100
		p.CPUKernel = float64(rep.Usage.KernelCPU) / float64(latency) * 100
		p.CPUTotal = p.CPUUser + p.CPUKernel
	}
	if serLatency > 0 {
		p.SerRPS = float64(time.Second) / float64(serLatency)
	}
	return p
}

// averagePoints folds repeated measurements of the same (system, x) pair.
func averagePoints(points []Point) Point {
	if len(points) == 1 {
		return points[0]
	}
	out := points[0]
	for _, p := range points[1:] {
		out.Latency += p.Latency
		out.SerLatency += p.SerLatency
		out.RPS += p.RPS
		out.SerRPS += p.SerRPS
		out.CPUTotal += p.CPUTotal
		out.CPUUser += p.CPUUser
		out.CPUKernel += p.CPUKernel
		out.RAMMB += p.RAMMB
		out.Breakdown.Setup += p.Breakdown.Setup
		out.Breakdown.Transfer += p.Breakdown.Transfer
		out.Breakdown.Serialization += p.Breakdown.Serialization
		out.Breakdown.WasmIO += p.Breakdown.WasmIO
		out.Breakdown.Network += p.Breakdown.Network
		out.Breakdown.Compute += p.Breakdown.Compute
		out.Breakdown.Overlap += p.Breakdown.Overlap
	}
	n := time.Duration(len(points))
	fn := float64(len(points))
	out.Latency /= n
	out.SerLatency /= n
	out.RPS /= fn
	out.SerRPS /= fn
	out.CPUTotal /= fn
	out.CPUUser /= fn
	out.CPUKernel /= fn
	out.RAMMB /= fn
	out.Breakdown.Setup /= n
	out.Breakdown.Transfer /= n
	out.Breakdown.Serialization /= n
	out.Breakdown.WasmIO /= n
	out.Breakdown.Network /= n
	out.Breakdown.Compute /= n
	out.Breakdown.Overlap /= n
	return out
}

// System labels used across figures (paper naming).
const (
	SysRRUser    = "RoadRunner (User space)"
	SysRRKernel  = "RoadRunner (Kernel space)"
	SysRRNetwork = "RoadRunner (Network)"
	SysRunC      = "RunC"
	SysWasmEdge  = "Wasmedge"
)

// Registry maps experiment IDs to runners.
var Registry = map[string]func(Options) (*Result, error){
	"fig2a":       Fig2a,
	"fig2b":       Fig2b,
	"fig6":        Fig6,
	"fig7":        Fig7,
	"fig8":        Fig8,
	"fig9":        Fig9,
	"fig10":       Fig10,
	"chancache":   ChanCache,
	"pipeline":    Pipeline,
	"placement":   Placement,
	"failure":     Failure,
	"hotpath":     Hotpath,
	"fanoutshare": FanoutShare,
}

// IDs lists the experiment identifiers, paper figures first.
func IDs() []string {
	return []string{"fig2a", "fig2b", "fig6", "fig7", "fig8", "fig9", "fig10", "chancache", "pipeline", "placement", "failure", "hotpath", "fanoutshare"}
}

// RunAll executes every experiment and prints the results.
func RunAll(w io.Writer, opts Options) error {
	for _, id := range IDs() {
		res, err := Registry[id](opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		res.Print(w)
	}
	return nil
}

// headline produces "A improves on B by X%" comparison notes.
func headline(metric string, a, b string, va, vb time.Duration) string {
	if vb <= 0 {
		return ""
	}
	impr := (1 - float64(va)/float64(vb)) * 100
	return fmt.Sprintf("%s: %s vs %s: %+.1f%% (%.4gs vs %.4gs)", metric, a, b, impr, va.Seconds(), vb.Seconds())
}

var _ = strings.TrimSpace // reserved for future notes formatting
