package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// schemaVersion identifies the result file layout.
const schemaVersion = 1

// saturatedBudget is how many of a run's open-loop rounds may fail to sustain
// the offered rate before the run fails. One: a neighbour that takes the
// machine for a second can saturate a round; two in one run is the
// workload's own doing. The count is reported as gen.saturated_rounds and
// compared by -check.
const saturatedBudget = 1

// envBlock stamps a result with where and how it was recorded. -check
// refuses to compare results whose machine or run-design fields differ.
type envBlock struct {
	NumCPU       int     `json:"num_cpu"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	GOOS         string  `json:"goos"`
	GOARCH       string  `json:"goarch"`
	Seed         int64   `json:"seed"`
	Rounds       int     `json:"rounds"`
	RoundSeconds float64 `json:"round_seconds"`
}

// workloadResult is one workload's share of a result file.
type workloadResult struct {
	Loop         string   `json:"loop"`
	Clients      int      `json:"clients"`
	PayloadBytes int      `json:"payload_bytes"`
	Rounds       int      `json:"rounds"`
	Ops          int64    `json:"ops"`
	Samples      int      `json:"samples"`
	Attempted    int64    `json:"attempted"`
	Failed       int64    `json:"failed"`
	Failures     []string `json:"failures,omitempty"`
	// Metrics holds every round metric's distribution over the rounds; its
	// median is the reported value.
	Metrics map[string]summary `json:"metrics"`
	// Layers holds the layer run's probe metrics; Budget its table.
	Layers map[string]float64 `json:"layers,omitempty"`
	Budget []budgetRow        `json:"budget,omitempty"`
}

// value returns the reported value of the named metric: the layer run's for a
// probe metric, the median over the untraced rounds otherwise.
func (wr *workloadResult) value(name string) (float64, bool) {
	if v, ok := wr.Layers[name]; ok {
		return v, true
	}
	s, ok := wr.Metrics[name]
	return s.Value, ok
}

// result is the JSON document -out writes and -check reads.
type result struct {
	Schema    int                        `json:"schema"`
	Env       envBlock                   `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func currentEnv(o options, rounds int) envBlock {
	return envBlock{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Seed: o.seed, Rounds: rounds, RoundSeconds: o.roundSeconds,
	}
}

// commit names the source revision: the build's VCS stamp, else git, else
// "unknown" (a checkout that is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// runParent runs the rounds of the selected workloads, each in its own child
// process and interleaved across workloads, then the layer run, prints the
// tables and writes the result. It fails on any failed op or violated guard,
// and when more than saturatedBudget of an open-loop workload's rounds were
// saturated.
func runParent(ctx context.Context, o options) error {
	selected := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		selected = []*workload{w}
	}
	rounds, layers := o.rounds, o.trace != 0
	if o.trace == 1 {
		rounds = min(rounds, tracedRounds)
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	began := time.Now()
	res := &result{Schema: schemaVersion, Env: currentEnv(o, rounds), Workloads: map[string]*workloadResult{}}
	perRound := map[string][]*roundResult{}
	for round := 0; round < rounds; round++ {
		for _, w := range selected {
			rr := &roundResult{}
			err := runChild(ctx, exe, rr, "-child", "round", "-workload", w.name,
				"-round-seconds", formatFloat(o.roundSeconds),
				"-seed", strconv.FormatInt(roundSeed(o.seed, round), 10))
			if err != nil {
				return fmt.Errorf("%s round %d: %w", w.name, round+1, err)
			}
			perRound[w.name] = append(perRound[w.name], rr)
			fmt.Fprintf(os.Stderr, "bench: round %d/%d %-18s %8d ops  (%s)\n", round+1, rounds, w.name, rr.Ops, elapsedSince(began))
		}
	}
	for _, w := range selected {
		res.Workloads[w.name] = aggregate(w, perRound[w.name])
	}
	if layers {
		for _, w := range selected {
			lr := &layerResult{}
			args := []string{"-child", "layers", "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
				"-untraced-p50", formatFloat(res.Workloads[w.name].Metrics["op_p50_us"].Value)}
			if o.spans != "" {
				args = append(args, "-spans", o.spans+"."+w.name)
			}
			if err := runChild(ctx, exe, lr, args...); err != nil {
				return fmt.Errorf("%s layer run: %w", w.name, err)
			}
			res.Workloads[w.name].Layers, res.Workloads[w.name].Budget = lr.Metrics, lr.Budget
			fmt.Fprintf(os.Stderr, "bench: layer run %-18s (%s)\n", w.name, elapsedSince(began))
		}
	}

	printResult(os.Stdout, res, selected)
	if o.out != "" {
		if err := writeResult(o.out, res); err != nil {
			return err
		}
	}
	var failures []string
	var attempted, failed int64
	for _, w := range selected {
		wr := res.Workloads[w.name]
		attempted += wr.Attempted
		failed += wr.Failed
		if wr.Failed > 0 {
			failures = append(failures, fmt.Sprintf("%s: %d of %d ops failed: %s", w.name, wr.Failed, wr.Attempted, strings.Join(wr.Failures, "; ")))
		}
		if n := wr.Metrics["gen.saturated_rounds"].Value; n > saturatedBudget {
			failures = append(failures, fmt.Sprintf("%s: %g of %d rounds saturated: the offered rate was not sustained", w.name, n, wr.Rounds))
		}
	}
	if o.trace >= 0 {
		if err := printDriverLine(os.Stdout, res, selected[0], o.trace == 1, len(failures) == 0, attempted, failed); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "\n"))
	}
	return nil
}

// runChild runs this binary with args and decodes the one JSON line it
// prints. The child's diagnostics go to this process's standard error.
func runChild(ctx context.Context, exe string, into any, args ...string) error {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), into); err != nil {
		return fmt.Errorf("child %v printed %q: %w", args, out, err)
	}
	return nil
}

// aggregate folds a workload's rounds: counts sum, every metric keeps its
// per-round values and reports their median.
func aggregate(w *workload, rounds []*roundResult) *workloadResult {
	wr := &workloadResult{Loop: w.loop, PayloadBytes: w.payload, Rounds: len(rounds), Metrics: map[string]summary{}}
	perMetric := map[string][]float64{}
	for _, rr := range rounds {
		wr.Clients = rr.Clients
		wr.Ops += rr.Ops
		wr.Samples += rr.Samples
		wr.Attempted += rr.Attempted
		wr.Failed += rr.Failed
		if len(wr.Failures) < maxFailures {
			wr.Failures = append(wr.Failures, rr.Failures...)
		}
		for name, v := range rr.Metrics {
			perMetric[name] = append(perMetric[name], v)
		}
	}
	for name, vals := range perMetric {
		wr.Metrics[name] = summarize(vals)
	}
	// A median would hide the rounds that failed or saturated: the failure
	// ratio is reported over everything the run attempted, saturation as
	// the number of rounds it hit.
	if fr := wr.Metrics["fail_ratio"]; wr.Attempted > 0 {
		fr.Value = float64(wr.Failed) / float64(wr.Attempted)
		wr.Metrics["fail_ratio"] = fr
	}
	sat := wr.Metrics["gen.saturated_rounds"]
	sat.Value = 0
	for _, v := range sat.Rounds {
		sat.Value += v
	}
	wr.Metrics["gen.saturated_rounds"] = sat
	return wr
}

func writeResult(path string, res *result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &result{}
	if err := json.Unmarshal(data, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if res.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %d, this benchmark reads schema %d", path, res.Schema, schemaVersion)
	}
	return res, nil
}

// printResult prints every metric by name and unit: per workload the
// end-to-end metrics (the reported median, then quartiles, min and max over
// the rounds), the round counters, and — when the layer run ran — the probes
// and the budget.
func printResult(out io.Writer, res *result, selected []*workload) {
	e := res.Env
	fmt.Fprintf(out, "env: %d CPUs, GOMAXPROCS %d, %s %s/%s, commit %s, seed %d, %d rounds x %g s\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.GOOS, e.GOARCH, e.Commit, e.Seed, e.Rounds, e.RoundSeconds)
	for _, w := range selected {
		wr := res.Workloads[w.name]
		fmt.Fprintf(out, "\n== %s: %s loop, %d client(s), P = %d B, %d rounds, %d ops, %d latency samples, %d/%d failed\n",
			w.name, wr.Loop, wr.Clients, wr.PayloadBytes, wr.Rounds, wr.Ops, wr.Samples, wr.Failed, wr.Attempted)
		tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tmin\tmax\t")
		for _, m := range roundMetrics() {
			s := wr.Metrics[m.name]
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t\n", m.name, m.unit, formatValue(s.Value),
				formatValue(s.Q1), formatValue(s.Q3), formatValue(s.Min), formatValue(s.Max))
		}
		tw.Flush()
		if wr.Layers == nil {
			continue
		}
		fmt.Fprintf(out, "-- layer run (probes at this workload's shape)\n")
		tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "metric\tunit\tvalue\tshould move")
		for _, m := range probeLayer {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", m.name, m.unit, formatValue(wr.Layers[m.name]), m.moves)
		}
		tw.Flush()
		printBudget(out, wr.Budget)
	}
}

// driverLine is the one JSON object a -trace run prints last.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printDriverLine prints the metrics BENCHMARK.json names: the bounded
// end-to-end metrics for an untraced run, every per-layer metric for a
// traced one.
func printDriverLine(out io.Writer, res *result, w *workload, traced, correct bool, attempted, failed int64) error {
	wr := res.Workloads[w.name]
	line := driverLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]driverValue{}}
	defs := gatedEndToEnd()
	if traced {
		defs = perLayer()
	}
	for _, m := range defs {
		v, ok := wr.value(m.name)
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		line.Metrics[m.name] = driverValue{Value: v, Unit: m.unit}
	}
	return json.NewEncoder(out).Encode(line)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// formatValue prints a value with about four significant digits.
func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 1000:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case a >= 10:
		return strconv.FormatFloat(v, 'f', 2, 64)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}
