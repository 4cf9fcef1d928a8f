// Command roadvet is the repository's static-analysis gate: a suite of
// go/analysis passes that prove the data-plane's resource invariants,
// each distilled from a bug an earlier PR shipped or nearly shipped.
//
// The resource analyzers are interprocedural: a bottom-up pass over the
// call graph computes per-function obligation summaries (what each
// function consumes, returns, polls, or balances), so a release that
// lives in a helper still credits the caller's obligation and a lock
// taken in the caller still guards the callee's field access.
//
// Six of them prove one theorem — every acquire reaches a release, a
// handoff, or an exempt error return on every path — and are rows of one
// table read by one engine (internal/analysis/obligation):
//
//   - regionrelease: every region a View.Allocate returns reaches a
//     Deallocate (or the caller, or a consuming helper) — the ingress leak
//     class.
//   - poolreturn: every object taken from a sync.Pool recycler reaches
//     its Put (or a consumer that puts it) — the hot-path recycle leak
//     class.
//   - refbalance: every pagebuf page reference acquired from a producer
//     (Retain, Ring.Clone/Pop, pool Copy/Gift, ReadRefs) reaches its
//     Release/ReleaseAll or a consumer that owns it; one leaking path
//     under a tee group pins a page per fan-out target.
//   - gaugebalance: every invoker-plane State.Enter has a State.Exit —
//     the phantom in-flight load bug. Enter/Exit pairs transfer through
//     unexported helpers.
//   - fdclose: every descriptor opened with Proc.Pipe, kernel.SocketPair
//     or kernel.Connect reaches Proc.Close, the caller, or a longer-lived
//     structure — the error-path descriptor leak class.
//   - windowcredit: every sendWindow.reserve is followed by a push on the
//     same window — a stranded reservation parks a later writer forever.
//
// The rest:
//
//   - lockorder: nested Shim.mu acquisitions must go through the ordered
//     lockShims helper — the AB/BA transfer deadlock.
//   - lockguard: every access to a field declared `//roadvet:guards mu`
//     happens with mu provably held — including lock-in-caller,
//     access-in-callee splits, whose entry lock sets are inferred from
//     call sites. RWMutex reads accept RLock; writes require Lock.
//   - ctxpoll: hose-chunk syscall loops poll the context per chunk
//     (directly or through a helper that provably polls), so
//     cancellation lands mid-stream.
//   - errclass: every exported kernel error is classified as instance
//     fault (retryable) or caller fault (terminal) in the retry layer.
//   - ctxcheck, doccheck: the context-first API and godoc contracts,
//     ported from their former standalone commands.
//
// roadvet also enforces gofmt on every file it loads, so one invocation
// replaces the previous vet+gofmt+ctxcheck+doccheck lint pipeline.
//
// # Annotations
//
// Guarded-field declarations sit on the struct field they protect:
//
//	//roadvet:guards <mutexField>
//
// Intentional exceptions are annotated in the source:
//
//	//roadvet:ignore <analyzer> <reason>     suppress one finding
//	//roadvet:unguarded <reason>             exempt one guarded access
//
// The reason is mandatory, and an annotation that suppresses nothing is
// itself an error — suppressions cannot outlive their justification.
//
// # Flags
//
//	-json <path|->        also write findings as JSON (for CI artifacts)
//	-budget <baseline>    fail if wall-clock exceeds 2x the committed
//	                      baseline (ROADVET_BASELINE.json)
//	-record <baseline>    write the measured wall-clock as the new baseline
//
// Usage: roadvet [flags] [packages] (default "./...")
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"golang.org/x/tools/go/analysis"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/ctxcheck"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/ctxpoll"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/doccheck"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/driver"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/errclass"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/fdclose"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/gaugebalance"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/lockguard"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/lockorder"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/poolreturn"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/refbalance"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/regionrelease"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/analysis/windowcredit"
)

// suite is every analyzer the gate runs, in report order.
var suite = []*analysis.Analyzer{
	regionrelease.Analyzer,
	poolreturn.Analyzer,
	refbalance.Analyzer,
	gaugebalance.Analyzer,
	fdclose.Analyzer,
	windowcredit.Analyzer,
	lockorder.Analyzer,
	lockguard.Analyzer,
	ctxpoll.Analyzer,
	errclass.Analyzer,
	ctxcheck.Analyzer,
	doccheck.Analyzer,
}

// budgetFactor is the slack over the committed baseline before the
// wall-clock budget check fails: interprocedural summaries must stay
// cheap enough to run on every push.
const budgetFactor = 2.0

// jsonFinding is one diagnostic in the -json artifact.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	Stale    bool   `json:"stale,omitempty"`
}

// jsonReport is the -json artifact schema.
type jsonReport struct {
	Findings   []jsonFinding `json:"findings"`
	Suppressed int           `json:"suppressed"`
	Seconds    float64       `json:"seconds"`
}

// baseline is the ROADVET_BASELINE.json schema for -budget / -record.
type baseline struct {
	Seconds float64 `json:"seconds"`
}

func usage() {
	fmt.Fprint(flag.CommandLine.Output(), `roadvet: the data-plane invariant gate.

Usage: roadvet [flags] [packages]   (default "./...")

Analyzers (the names //roadvet:ignore accepts): regionrelease,
poolreturn, refbalance, gaugebalance, fdclose, windowcredit, lockorder,
lockguard, ctxpoll, errclass, ctxcheck, doccheck; plus the gofmt gate.

Annotations recognised in source:
  //roadvet:guards <mutexField>   on a struct field: every access must
                                  hold the named sync.Mutex/RWMutex,
                                  proved interprocedurally (lockguard).
  //roadvet:unguarded <reason>    exempt the access on this or the next
                                  line from lockguard; reason mandatory,
                                  stale hatches are themselves findings.
  //roadvet:ignore <analyzer> <reason>
                                  suppress one finding on this or the
                                  next line; reason mandatory, stale
                                  ignores are themselves findings.

Flags:
`)
	flag.PrintDefaults()
}

func toJSON(fs []driver.Finding, stale bool) []jsonFinding {
	out := make([]jsonFinding, 0, len(fs))
	for _, f := range fs {
		out = append(out, jsonFinding{
			Analyzer: f.Analyzer,
			File:     filepath.ToSlash(f.Pos.Filename),
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Message:  f.Message,
			Stale:    stale,
		})
	}
	return out
}

func writeJSON(path string, rep jsonReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, b, 0o644)
}

func main() {
	jsonPath := flag.String("json", "", "also write findings as JSON to `path` (- for stdout)")
	budgetPath := flag.String("budget", "", "fail if wall-clock exceeds 2x the baseline in `file`")
	recordPath := flag.String("record", "", "write the measured wall-clock baseline to `file`")
	flag.Usage = usage
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	start := time.Now()
	res, err := driver.Vet(suite, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "roadvet:", err)
		os.Exit(2)
	}
	elapsed := time.Since(start).Seconds()

	bad := false
	for _, f := range res.Findings {
		bad = true
		fmt.Fprintln(os.Stderr, f)
	}
	for _, f := range res.Stale {
		bad = true
		fmt.Fprintln(os.Stderr, f)
	}

	if *jsonPath != "" {
		rep := jsonReport{
			Findings:   append(toJSON(res.Findings, false), toJSON(res.Stale, true)...),
			Suppressed: res.Suppressed,
			Seconds:    elapsed,
		}
		if err := writeJSON(*jsonPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "roadvet: write json:", err)
			os.Exit(2)
		}
	}
	if *recordPath != "" {
		b, err := json.Marshal(baseline{Seconds: elapsed})
		if err == nil {
			err = os.WriteFile(*recordPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "roadvet: record baseline:", err)
			os.Exit(2)
		}
	}
	if *budgetPath != "" {
		b, err := os.ReadFile(*budgetPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "roadvet: budget:", err)
			os.Exit(2)
		}
		var base baseline
		if err := json.Unmarshal(b, &base); err != nil || base.Seconds <= 0 {
			fmt.Fprintf(os.Stderr, "roadvet: budget: %s: bad baseline\n", *budgetPath)
			os.Exit(2)
		}
		limit := base.Seconds * budgetFactor
		if elapsed > limit {
			fmt.Fprintf(os.Stderr,
				"roadvet: wall-clock budget exceeded: %.2fs > %.2fs (%gx baseline %.2fs); "+
					"either make the analysis cheaper or re-record %s with -record\n",
				elapsed, limit, budgetFactor, base.Seconds, *budgetPath)
			bad = true
		}
	}

	if bad {
		os.Exit(1)
	}
	if res.Suppressed > 0 {
		fmt.Printf("roadvet: ok (%d justified suppression(s), %.2fs)\n", res.Suppressed, elapsed)
	} else {
		fmt.Printf("roadvet: ok (%.2fs)\n", elapsed)
	}
}
