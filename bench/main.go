// Command bench is the repository's data-delivery benchmark: six workloads
// driven through the public API with wall-clock timing and checksum-verified
// deliveries, plus a separate layer run that times each internal package's
// exported functions at every workload's shape and reconciles them with the
// end-to-end median in a budget table. README.md in this directory defines
// every metric and the run design; BENCHMARK.json at the repository root
// names what is gated.
//
//	go run ./bench                      # 8 rounds × 2 s × 6 workloads, then the layer run
//	go run ./bench -out A.json          # same, and write the result file
//	go run ./bench -check A.json B.json # compare two result files against the bounds
//	go run ./bench -smoke               # 1 round × 50 ms per workload, in-process
//	go run ./bench -workload W -seed N -seconds S -trace 0|1   # one workload, one JSON line last
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"
)

// Run-design defaults (README.md "Run design").
const (
	defaultRounds       = 8
	defaultRoundSeconds = 2.0
	// tracedRounds is how many untraced rounds a -trace 1 run keeps: enough
	// for the counter metrics and the trace-overhead reference while the
	// whole run stays no longer than an untraced one.
	tracedRounds = 4
	smokeSeconds = 0.05
)

type options struct {
	workload     string
	rounds       int
	roundSeconds float64
	seconds      float64
	seed         int64
	trace        int
	out, spans   string
	check, smoke bool
	spec         bool
	child        string
	untracedP50  float64
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all six)")
	flag.IntVar(&o.rounds, "rounds", defaultRounds, "measured rounds per workload")
	flag.Float64Var(&o.roundSeconds, "round-seconds", defaultRoundSeconds, "measured seconds per round")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per workload in total; overrides -round-seconds")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the arrival schedule and of which ops are verified")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end rounds only, 1: fewer rounds and the layer run; either prints one JSON object as the last line (default: all rounds, then the layer run)")
	flag.StringVar(&o.out, "out", "", "write the JSON result to this file")
	flag.StringVar(&o.spans, "spans", "", "write the layer run's spans to this file (JSON lines)")
	flag.BoolVar(&o.check, "check", false, "compare two result files: bench -check A.json B.json")
	flag.BoolVar(&o.smoke, "smoke", false, "one 50 ms round per workload and the layer run, in this process")
	flag.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json as this code defines it")
	flag.StringVar(&o.child, "child", "", "internal: run one round (\"round\") or one layer run (\"layers\") and print one JSON line")
	flag.Float64Var(&o.untracedP50, "untraced-p50", 0, "internal: the untraced op_p50_us the layer run compares against")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, o, flag.Args())
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options, args []string) error {
	if o.check {
		if len(args) != 2 {
			return errors.New("-check takes two result files")
		}
		return checkFiles(os.Stdout, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if o.spec {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(currentSpec())
	}
	if o.smoke {
		_, err := runSmoke(ctx, os.Stdout)
		return err
	}
	if raceEnabled {
		return errors.New("refusing to measure a -race build: its timings are the detector's (use -smoke)")
	}
	if o.seconds > 0 {
		o.roundSeconds = o.seconds / float64(o.rounds)
	}
	if o.rounds < 1 || o.roundSeconds <= 0 {
		return errors.New("-rounds and -round-seconds must be positive")
	}
	switch o.child {
	case "":
		return runParent(ctx, o)
	case "round", "layers":
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		var line any
		if o.child == "round" {
			line, err = runRound(ctx, roundSpec{w: w, seconds: o.roundSeconds, seed: o.seed, begin: processStart})
		} else {
			line, err = runLayers(ctx, layerSpec{w: w, seconds: layerSeconds, seed: o.seed, untracedP50: o.untracedP50, spans: o.spans})
		}
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(line)
	default:
		return fmt.Errorf("unknown -child %q", o.child)
	}
}

// roundSeed derives the seed of one round from the run's seed, so rounds
// see different schedules and the run as a whole repeats.
func roundSeed(seed int64, round int) int64 { return seed*1_000_003 + int64(round) }

// elapsedSince formats a duration for progress lines.
func elapsedSince(t time.Time) string { return time.Since(t).Round(100 * time.Millisecond).String() }
