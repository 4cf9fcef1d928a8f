// Command roadrunner-load drives concurrent workflow load through the
// simulated Roadrunner deployment and reports aggregate throughput and
// latency percentiles as JSON (schema_version-tagged, diffable across PRs).
//
// Usage:
//
//	roadrunner-load                          # closed loop: 8 workflows, 32 executions
//	roadrunner-load -workflows 16 -requests 256
//	roadrunner-load -mode network -payload 1048576
//	roadrunner-load -mode chain -hops 6      # chain-depth scaling scenario
//	roadrunner-load -replicas 4              # 4-instance pools per function, locality-routed
//	roadrunner-load -replicas 4 -placement round-robin # placement-oblivious ablation
//	roadrunner-load -mode plan               # a Plan/Submit DAG per iteration
//	roadrunner-load -mode fanout -targets 8  # one shared-egress fan-out to 8 same-node sandboxes per iteration
//	roadrunner-load -deadline 5ms            # per-operation ctx timeout ("cancelled" counter)
//	roadrunner-load -replicas 4 -kills 1     # degrade-under-kill: crash 1 replica per pool mid-load
//	roadrunner-load -rate 500 -duration 2s   # open loop: 500 exec/s offered for 2s
//	roadrunner-load -profile ./prof          # cpu.pprof + heap.pprof around the measured window
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "roadrunner-load:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("roadrunner-load", flag.ContinueOnError)
	var (
		workflows = fs.Int("workflows", 8, "independent workflow instances")
		hops      = fs.Int("hops", 0, "transfers per execution (default: 3 mixed, 2 single-mode)")
		payload   = fs.Int("payload", 64<<10, "payload bytes produced per execution")
		conc      = fs.Int("concurrency", 0, "max in-flight executions (default: min(workflows, GOMAXPROCS))")
		requests  = fs.Int("requests", 0, "closed-loop total executions (default: 4×workflows)")
		rate      = fs.Float64("rate", 0, "open-loop arrivals per second (0 = closed loop)")
		duration  = fs.Duration("duration", time.Second, "open-loop offered-load window")
		mode      = fs.String("mode", workload.ModeMixed, "transfer mode: mixed, user, kernel, network, chain, plan or fanout")
		targets   = fs.Int("targets", 0, "fanout-mode deliveries per execution (default 4; requires -mode fanout)")
		verify    = fs.Bool("verify", true, "checksum every final delivery")
		cold      = fs.Bool("cold-channels", false, "disable the channel cache: per-call hose setup/teardown (cold regime)")
		replicas  = fs.Int("replicas", 1, "warm instance-pool size per function, spread across both nodes")
		placement = fs.String("placement", "locality", "invoker-plane placement policy: locality, least-loaded or round-robin")
		deadline  = fs.Duration("deadline", 0, "per-operation context timeout (0 = none); tripped executions count as cancelled")
		kills     = fs.Int("kills", 0, "replicas crashed mid-load per function pool (requires -replicas > kills)")
		profile   = fs.String("profile", "", "write cpu.pprof and heap.pprof into this directory, bracketing the measured window")
		compact   = fs.Bool("compact", false, "single-line JSON output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	res, err := workload.Run(workload.Config{
		Workflows:    *workflows,
		Hops:         *hops,
		PayloadBytes: *payload,
		Concurrency:  *conc,
		Requests:     *requests,
		RatePerSec:   *rate,
		Duration:     *duration,
		Mode:         *mode,
		Targets:      *targets,
		Verify:       *verify,
		ColdChannels: *cold,
		Replicas:     *replicas,
		Placement:    *placement,
		Deadline:     *deadline,
		Kills:        *kills,
		ProfileDir:   *profile,
	})
	if err != nil {
		return err
	}

	enc := json.NewEncoder(out)
	if !*compact {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(res)
}
