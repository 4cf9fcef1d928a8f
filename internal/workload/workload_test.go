package workload

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestClosedLoopAllModes(t *testing.T) {
	for _, mode := range []string{ModeMixed, ModeUser, ModeKernel, ModeNetwork, ModeChain, ModePlan} {
		t.Run(mode, func(t *testing.T) {
			res, err := Run(Config{
				Workflows:    4,
				Requests:     12,
				PayloadBytes: 8 << 10,
				Mode:         mode,
				Verify:       true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("%d failed executions", res.Errors)
			}
			if res.Ops != 12 {
				t.Fatalf("ops = %d, want 12", res.Ops)
			}
			if res.Loop != "closed" || res.Mode != mode {
				t.Fatalf("loop/mode = %s/%s", res.Loop, res.Mode)
			}
			if res.OpsPerSec <= 0 || res.Latency.P50 <= 0 || res.Latency.Max < res.Latency.P99 {
				t.Fatalf("implausible aggregates: %+v", res)
			}
			wantBytes := res.Ops * int64(res.Hops) * int64(res.PayloadBytes)
			if res.Bytes != wantBytes {
				t.Fatalf("bytes = %d, want %d", res.Bytes, wantBytes)
			}
		})
	}
}

// TestFanoutMode drives the shared-egress fan-out regime: one produce per
// execution delivered to Targets same-node sandboxes through the tee
// group, checksummed at every target, with the schema v7 fanout tagging
// and per-delivery byte accounting.
func TestFanoutMode(t *testing.T) {
	res, err := Run(Config{
		Workflows:    2,
		Requests:     8,
		PayloadBytes: 8 << 10,
		Mode:         ModeFanout,
		Targets:      6,
		Verify:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Cancelled != 0 {
		t.Fatalf("%d failed, %d cancelled executions", res.Errors, res.Cancelled)
	}
	if res.Ops != 8 {
		t.Fatalf("ops = %d, want 8", res.Ops)
	}
	if res.SchemaVersion != SchemaVersion || res.Fanout != 6 || res.Hops != 1 {
		t.Fatalf("schema tagging: %+v", res)
	}
	// Every execution is one hop but six deliveries.
	if want := res.Ops * 6; res.Transfers != want {
		t.Fatalf("transfers = %d, want %d", res.Transfers, want)
	}
	if want := res.Ops * 6 * int64(res.PayloadBytes); res.Bytes != want {
		t.Fatalf("bytes = %d, want %d", res.Bytes, want)
	}
	// Targets defaults in fanout mode and is rejected elsewhere.
	if res, err := Run(Config{Workflows: 1, Requests: 2, Mode: ModeFanout}); err != nil || res.Fanout != 4 {
		t.Fatalf("default targets: res=%+v err=%v", res, err)
	}
	if _, err := Run(Config{Mode: ModeKernel, Targets: 3}); err == nil {
		t.Fatal("-targets outside fanout mode must be rejected")
	}
}

// TestReplicatedPools drives the closed loop over replicated instance
// pools under every placement policy, verifying checksums end to end and
// the schema v4 replica/placement tagging.
func TestReplicatedPools(t *testing.T) {
	for _, placement := range []string{"locality", "least-loaded", "round-robin"} {
		for _, mode := range []string{ModeMixed, ModeChain} {
			t.Run(placement+"/"+mode, func(t *testing.T) {
				res, err := Run(Config{
					Workflows:    2,
					Requests:     8,
					PayloadBytes: 8 << 10,
					Mode:         mode,
					Replicas:     3,
					Placement:    placement,
					Verify:       true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Errors != 0 {
					t.Fatalf("%d failed executions", res.Errors)
				}
				if res.Ops != 8 {
					t.Fatalf("ops = %d, want 8", res.Ops)
				}
				if res.SchemaVersion != SchemaVersion || res.Replicas != 3 || res.Placement != placement {
					t.Fatalf("schema tagging: %+v", res)
				}
			})
		}
	}
	if _, err := Run(Config{Placement: "nope"}); err == nil {
		t.Fatal("unknown placement must be rejected")
	}
}

// TestKillsDegradeNotCollapse drives the degrade-under-kill regime: one
// replica of every pool crashes partway into its first delivery, and the
// health-aware retry-with-exclusion routing must keep the vast majority of
// executions completing on the survivors (a handful may fail while the FSM
// converges on the corpses).
func TestKillsDegradeNotCollapse(t *testing.T) {
	const requests = 80
	res, err := Run(Config{
		Workflows:    2,
		Requests:     requests,
		PayloadBytes: 8 << 10,
		Mode:         ModeKernel,
		Replicas:     4,
		Placement:    "round-robin",
		Verify:       true,
		Kills:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kills != 1 || res.SchemaVersion != SchemaVersion {
		t.Fatalf("schema tagging: %+v", res)
	}
	if res.Ops+res.Errors != requests || res.Cancelled != 0 {
		t.Fatalf("ops=%d errors=%d cancelled=%d, want %d total", res.Ops, res.Errors, res.Cancelled, requests)
	}
	// Degrade, not collapse: at least 3/4 of the executions complete even
	// though 1/4 of every pool is dead.
	if res.Ops < requests*3/4 {
		t.Fatalf("only %d/%d executions survived the kill", res.Ops, requests)
	}
	// Config echo plus validation: a kill count that leaves no replica is
	// rejected.
	if _, err := Run(Config{Replicas: 2, Kills: 2}); err == nil {
		t.Fatal("kills >= replicas must be rejected")
	}
}

func TestOpenLoopReportsSojournAndService(t *testing.T) {
	res, err := Run(Config{
		Workflows:    4,
		PayloadBytes: 4 << 10,
		Mode:         ModeKernel,
		RatePerSec:   200,
		Duration:     100 * time.Millisecond,
		Verify:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loop != "open" {
		t.Fatalf("loop = %s, want open", res.Loop)
	}
	if res.Ops == 0 || res.Errors != 0 {
		t.Fatalf("ops=%d errors=%d", res.Ops, res.Errors)
	}
	if res.ServiceOnly == nil {
		t.Fatal("open loop must report service-only percentiles")
	}
	// Sojourn includes queueing, so it can never undercut service time.
	if res.Latency.P50 < res.ServiceOnly.P50 {
		t.Fatalf("sojourn p50 %d < service p50 %d", res.Latency.P50, res.ServiceOnly.P50)
	}
}

func TestMemoryStaysBoundedAcrossManyExecutions(t *testing.T) {
	r, err := NewRunner(Config{Workflows: 1, Mode: ModeMixed, Requests: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	inst := r.instances[0]
	// Far more executions than linear memory could absorb if regions
	// leaked (each execution allocates 3 × 64 KiB inbound regions).
	for i := 0; i < 200; i++ {
		if err := r.execute(inst); err != nil {
			t.Fatalf("execution %d: %v", i, err)
		}
	}
}

func TestResultJSONCarriesSchemaAndMode(t *testing.T) {
	res, err := Run(Config{Workflows: 2, Requests: 2, Mode: ModeUser, PayloadBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m["schema_version"] != float64(SchemaVersion) {
		t.Fatalf("schema_version = %v", m["schema_version"])
	}
	if m["mode"] != ModeUser {
		t.Fatalf("mode = %v", m["mode"])
	}
	if _, ok := m["pipeline"]; ok {
		t.Fatal(`result still carries the "pipeline" field removed in schema version 8`)
	}
	if m["channels"] != "warm" {
		t.Fatalf("channels = %v, want warm", m["channels"])
	}
	if _, ok := m["ops_per_sec"]; !ok {
		t.Fatal("missing ops_per_sec")
	}
}

// TestColdChannelsRegime: disabling the channel cache is carried in the
// result schema AND observable in the platform's cache counters — a cold
// run bypasses the cache entirely (zero hits, zero misses) while a warm run
// establishes one channel per instance and reuses it for every later
// execution.
func TestColdChannelsRegime(t *testing.T) {
	run := func(cold bool) (*Result, ChannelStatsLike) {
		r, err := NewRunner(Config{
			Workflows:    2,
			Requests:     8,
			PayloadBytes: 8 << 10,
			Mode:         ModeNetwork,
			Verify:       true,
			ColdChannels: cold,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("%d failed executions", res.Errors)
		}
		st := r.Platform().ChannelStats()
		return res, ChannelStatsLike{Hits: st.Hits, Misses: st.Misses}
	}
	res, st := run(true)
	if res.Channels != "cold" {
		t.Fatalf("channels = %q, want cold", res.Channels)
	}
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("cold run touched the cache: %+v", st)
	}
	res, st = run(false)
	if res.Channels != "warm" {
		t.Fatalf("channels = %q, want warm", res.Channels)
	}
	// 2 instances × 2 directed pairs (a→b and the return hop b→a) miss
	// once each; the remaining 8×2 − 4 transfers all hit.
	if st.Misses != 4 || st.Hits != 12 {
		t.Fatalf("warm run did not reuse channels: %+v", st)
	}
}

// ChannelStatsLike keeps the assertion independent of the stats type's
// non-counter fields.
type ChannelStatsLike struct{ Hits, Misses int64 }

// TestChainDepth: the chain mode deploys a hops-deep line of functions (no
// ring wrap) and delivers checksum-clean payloads through every hop.
func TestChainDepth(t *testing.T) {
	res, err := Run(Config{
		Workflows:    2,
		Requests:     6,
		Hops:         5,
		PayloadBytes: 8 << 10,
		Mode:         ModeChain,
		Verify:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d failed executions", res.Errors)
	}
	if res.Hops != 5 || res.Mode != ModeChain {
		t.Fatalf("hops/mode = %d/%s", res.Hops, res.Mode)
	}
}

// TestPercentilesCeilNearestRank is the regression test for the truncated
// rank index: int(q*(n-1)) under-reported tail latency (e.g. P99 of
// 1..10 came out as 9, not 10). Ceil nearest-rank returns the smallest
// sample covering at least the requested fraction of the distribution.
func TestPercentilesCeilNearestRank(t *testing.T) {
	seq := func(n int) []time.Duration {
		durs := make([]time.Duration, n)
		for i := range durs {
			durs[i] = time.Duration(i + 1)
		}
		return durs
	}
	cases := []struct {
		name string
		durs []time.Duration
		want Percentiles
	}{
		{"single", seq(1), Percentiles{P50: 1, P90: 1, P99: 1, Max: 1}},
		{"three", seq(3), Percentiles{P50: 2, P90: 3, P99: 3, Max: 3}},
		// The old truncation reported P99=9 here.
		{"ten", seq(10), Percentiles{P50: 5, P90: 9, P99: 10, Max: 10}},
		{"hundred", seq(100), Percentiles{P50: 50, P90: 90, P99: 99, Max: 100}},
		// Unsorted input with duplicates; the old truncation reported
		// P90=8 (rank 7 of 8), ceil nearest-rank requires rank 8 (value 9).
		{"unsorted", []time.Duration{5, 1, 9, 3, 5, 2, 8, 5}, Percentiles{P50: 5, P90: 9, P99: 9, Max: 9}},
		{"empty", nil, Percentiles{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := percentiles(tc.durs); got != tc.want {
				t.Fatalf("percentiles = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestBadModeRejected(t *testing.T) {
	if _, err := Run(Config{Mode: "quantum"}); err == nil {
		t.Fatal("expected error for unknown mode")
	}
}

// TestPlanModeDrivesDAG: the plan mode executes the invoke + two-transfer
// DAG (3 hops per iteration), verified end to end, with memory flat enough
// to survive repetition (the releases rewind every touched allocator).
func TestPlanModeDrivesDAG(t *testing.T) {
	res, err := Run(Config{
		Workflows:    2,
		Requests:     16,
		PayloadBytes: 8 << 10,
		Mode:         ModePlan,
		Verify:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SchemaVersion != SchemaVersion || res.Mode != ModePlan {
		t.Fatalf("result tags = v%d %q", res.SchemaVersion, res.Mode)
	}
	if res.Errors != 0 || res.Cancelled != 0 {
		t.Fatalf("errors = %d cancelled = %d, want 0/0", res.Errors, res.Cancelled)
	}
	if res.Hops != 3 {
		t.Fatalf("plan hops = %d, want 3", res.Hops)
	}
	if res.Ops != 16 || res.Transfers != 48 {
		t.Fatalf("ops = %d transfers = %d, want 16/48", res.Ops, res.Transfers)
	}
}

// TestDeadlineShedsAsCancelled: an unmeetable per-op deadline sheds every
// execution into the cancelled counter — no errors, no ops — and the JSON
// carries both new schema-v5 fields.
func TestDeadlineShedsAsCancelled(t *testing.T) {
	res, err := Run(Config{
		Workflows:    2,
		Requests:     6,
		PayloadBytes: 64 << 10,
		Mode:         ModePlan,
		Deadline:     time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != 6 || res.Errors != 0 || res.Ops != 0 {
		t.Fatalf("cancelled = %d errors = %d ops = %d, want 6/0/0", res.Cancelled, res.Errors, res.Ops)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"cancelled", "deadline_ns"} {
		if _, ok := decoded[field]; !ok {
			t.Fatalf("schema v5 JSON lacks %q: %s", field, raw)
		}
	}
	if decoded["deadline_ns"].(float64) != 1 {
		t.Fatalf("deadline_ns = %v, want 1", decoded["deadline_ns"])
	}
}

// TestDeadlineGenerousCompletesAll: a deadline far beyond the work's cost
// never sheds — the ctx plumbing must not cancel healthy executions.
func TestDeadlineGenerousCompletesAll(t *testing.T) {
	res, err := Run(Config{
		Workflows:    2,
		Requests:     6,
		PayloadBytes: 8 << 10,
		Mode:         ModeMixed,
		Verify:       true,
		Deadline:     time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 6 || res.Cancelled != 0 || res.Errors != 0 {
		t.Fatalf("ops = %d cancelled = %d errors = %d, want 6/0/0", res.Ops, res.Cancelled, res.Errors)
	}
}

// TestProfileDirWritesProfiles runs a small closed loop with profiling on
// and verifies both pprof artifacts land in the directory, non-empty: the
// CPU profile bracketing the measured window and the post-GC heap profile
// taken after the loop drains.
func TestProfileDirWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(Config{
		Workflows:    2,
		Requests:     4,
		PayloadBytes: 8 << 10,
		Mode:         ModeKernel,
		Verify:       true,
		ProfileDir:   dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d failed executions", res.Errors)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s: empty profile", name)
		}
	}
}
