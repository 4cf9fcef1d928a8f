package invoke

import (
	"sync"
	"testing"
	"time"
)

// twoNodePools builds the canonical test fixture: source instances spread
// edge,cloud,edge,cloud and target instances spread cloud,edge,cloud,edge,
// with one shared-VM pair (src 0 and dst 1 share vmA).
func twoNodePools() (src, dst []Endpoint) {
	vmA := new(int)
	src = []Endpoint{
		{Node: "edge", VM: vmA},
		{Node: "cloud", VM: new(int)},
		{Node: "edge", VM: new(int)},
		{Node: "cloud", VM: new(int)},
	}
	dst = []Endpoint{
		{Node: "cloud", VM: new(int)},
		{Node: "edge", VM: vmA},
		{Node: "cloud", VM: new(int)},
		{Node: "edge", VM: new(int)},
	}
	return src, dst
}

func flatCost(a, b string) time.Duration { return time.Millisecond }

func TestRoundRobinCycles(t *testing.T) {
	src, _ := twoNodePools()
	st := NewState(len(src))
	for k := 0; k < 8; k++ {
		if got := RoundRobin.PickOne(st, src, nil); got != k%len(src) {
			t.Fatalf("pick %d = %d, want %d", k, got, k%len(src))
		}
	}
}

func TestLeastLoadedFollowsInFlight(t *testing.T) {
	src, _ := twoNodePools()
	st := NewState(len(src))
	st.Enter(0)
	st.Enter(1)
	if got := LeastLoaded.PickOne(st, src, nil); got != 2 {
		t.Fatalf("least-loaded picked %d, want 2 (0 and 1 busy)", got)
	}
	st.Exit(0)
	// 0 is idle again but its cumulative total ranks behind untouched 2/3.
	if got := LeastLoaded.PickOne(st, src, nil); got != 2 {
		t.Fatalf("least-loaded picked %d, want 2", got)
	}
}

func TestLocalityPrefersVMThenNodeThenLink(t *testing.T) {
	src, dst := twoNodePools()
	st := NewState(len(dst))
	// Source 0 shares a VM with target 1: tier 0 beats the same-node tier.
	if got := Locality.PickTarget(src[0], st, dst, nil, flatCost); got != 1 {
		t.Fatalf("shared-VM source routed to %d, want 1", got)
	}
	// Source 2 (edge, own VM): the edge targets 1 and 3 beat cloud; load
	// tie-break spreads across them as totals accumulate.
	st = NewState(len(dst))
	first := Locality.PickTarget(src[2], st, dst, nil, flatCost)
	if first != 1 {
		t.Fatalf("edge source routed to %d, want 1", first)
	}
	st.Enter(first)
	st.Exit(first)
	if got := Locality.PickTarget(src[2], st, dst, nil, flatCost); got != 3 {
		t.Fatalf("second edge invocation routed to %d, want 3 (load tie-break)", got)
	}
	// All-remote candidates: the cheapest link wins.
	remote := []Endpoint{{Node: "far", VM: new(int)}, {Node: "near", VM: new(int)}}
	cost := func(a, b string) time.Duration {
		if b == "near" {
			return time.Millisecond
		}
		return time.Second
	}
	if got := Locality.PickTarget(src[2], NewState(2), remote, nil, cost); got != 1 {
		t.Fatalf("remote routing picked %d, want 1 (cheapest link)", got)
	}
}

func TestLocalityPickPairSpreadsEqualCostPairs(t *testing.T) {
	_, _ = twoNodePools()
	// Pools with no shared VMs so every same-node pair is equal cost.
	src := []Endpoint{{Node: "edge", VM: new(int)}, {Node: "cloud", VM: new(int)},
		{Node: "edge", VM: new(int)}, {Node: "cloud", VM: new(int)}}
	dst := []Endpoint{{Node: "cloud", VM: new(int)}, {Node: "edge", VM: new(int)},
		{Node: "cloud", VM: new(int)}, {Node: "edge", VM: new(int)}}
	srcSt, dstSt := NewState(len(src)), NewState(len(dst))
	seen := map[[2]int]int{}
	for k := 0; k < 8; k++ {
		si, di := Locality.PickPair(srcSt, src, dstSt, dst, nil, flatCost)
		if si < 0 || di < 0 {
			t.Fatal("no pair picked")
		}
		if src[si].Node != dst[di].Node {
			t.Fatalf("locality picked cross-node pair (%d,%d)", si, di)
		}
		seen[[2]int{si, di}]++
		srcSt.Enter(si)
		srcSt.Exit(si)
		dstSt.Enter(di)
		dstSt.Exit(di)
	}
	// The load tie-break must keep every instance evenly used: after 8
	// picks each of the 4 source and 4 target instances has seen exactly 2.
	if len(seen) < 4 {
		t.Fatalf("8 sequential invocations used %d distinct pairs, want >= 4", len(seen))
	}
	for i := 0; i < 4; i++ {
		if srcSt.Total(i) != 2 || dstSt.Total(i) != 2 {
			t.Fatalf("instance %d usage src=%d dst=%d, want 2/2 (load tie-break spreads)",
				i, srcSt.Total(i), dstSt.Total(i))
		}
	}
}

func TestPickTargetEligibility(t *testing.T) {
	src, dst := twoNodePools()
	st := NewState(len(dst))
	onlyCloud := func(i int) bool { return dst[i].Node == "cloud" }
	if got := Locality.PickTarget(src[0], st, dst, onlyCloud, flatCost); got != 0 && got != 2 {
		t.Fatalf("filtered pick = %d, want a cloud target", got)
	}
	none := func(int) bool { return false }
	if got := Locality.PickTarget(src[0], st, dst, none, flatCost); got != -1 {
		t.Fatalf("empty eligibility returned %d, want -1", got)
	}
	if got := RoundRobin.PickOne(st, dst, none); got != -1 {
		t.Fatalf("round-robin empty eligibility returned %d, want -1", got)
	}
	if si, di := RoundRobin.PickPair(NewState(len(src)), src, NewState(len(dst)), dst,
		func(int, int) bool { return false }, flatCost); si != -1 || di != -1 {
		t.Fatalf("round-robin empty pair eligibility returned (%d,%d), want (-1,-1)", si, di)
	}
}

func TestStateCountersUnderConcurrency(t *testing.T) {
	st := NewState(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				i := k % st.Len()
				st.Enter(i)
				st.Exit(i)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < st.Len(); i++ {
		if st.InFlight(i) != 0 {
			t.Fatalf("instance %d in-flight = %d after quiesce", i, st.InFlight(i))
		}
		if st.Total(i) != 200 {
			t.Fatalf("instance %d total = %d, want 200", i, st.Total(i))
		}
	}
}
