// Package invoke is the invoker plane of the replicated deployment model:
// once a function is a pool of warm instances spread across nodes, every
// invocation — a transfer, a chain hop, a multicast leg, a fan-out delivery
// or a plain guest call — must be routed to one concrete instance (or one
// concrete source/target instance pair). This package owns that decision.
//
// The paper's premise (§2.2) is that Roadrunner optimizes communication
// *regardless of where the scheduler placed the functions*: user-space when
// a pair shares a Wasm VM, kernel-space when it shares a node, the network
// data hose otherwise. A placement-aware invoker makes that claim
// falsifiable at scale: the Locality policy steers invocations onto the
// cheapest tier the pools allow (maximizing user/kernel-mode transfers),
// LeastLoaded spreads by per-instance in-flight pressure, and RoundRobin is
// the placement-oblivious ablation baseline that pays wire time whenever
// the pools happen to straddle nodes.
//
// The package is deliberately mechanism-free: it knows nothing about shims,
// channels or transfer modes. Endpoints carry only the two facts placement
// cares about — node identity and VM identity — plus a LinkCost oracle for
// ranking cross-node alternatives. The engine (package roadrunner) owns
// executing the invocation on the instances a policy picks.
package invoke

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Endpoint describes one function instance to the placement policies.
type Endpoint struct {
	// Node is the cluster node the instance is placed on.
	Node string
	// VM is an opaque identity of the instance's Wasm VM; two endpoints
	// with the same non-nil VM share a VM and therefore qualify for
	// user-space transfers.
	VM any
}

// LinkCost reports a modeled cost of moving a nominal payload between two
// distinct nodes; Locality uses it to rank cross-node alternatives (any
// monotone metric works). A nil LinkCost treats all cross-node pairs as
// equal, which is what the platform passes: every pair of distinct nodes
// crosses the platform's one modeled link.
type LinkCost func(a, b string) time.Duration

// State is one function's routing state: a round-robin cursor, per-instance
// in-flight and cumulative invocation counters, and the per-instance health
// FSM (health.go). The counters are atomics; the health slots share one
// mutex behind an atomic fast-path flag that a never-degraded pool never
// sets. A State is shared by every concurrent invocation of its function.
type State struct {
	cursor atomic.Uint64
	slots  []slot

	// Per-instance health FSM (see health.go). degraded is set on the first
	// strike and never cleared: while false, Eligible/Observe/markProbe skip
	// hmu entirely.
	hcfg     HealthConfig
	degraded atomic.Bool
	hmu      sync.Mutex
	//roadvet:guards hmu
	health []healthSlot
}

type slot struct {
	inflight atomic.Int64
	total    atomic.Int64
}

// NewState returns routing state for a function with n instances, using the
// default health configuration.
func NewState(n int) *State {
	return NewStateWithHealth(n, HealthConfig{})
}

// NewStateWithHealth returns routing state for a function with n instances
// and an explicit health configuration.
func NewStateWithHealth(n int, cfg HealthConfig) *State {
	return &State{
		slots:  make([]slot, n),
		hcfg:   cfg.withDefaults(),
		health: make([]healthSlot, n),
	}
}

// Len reports the instance count the state was built for.
func (st *State) Len() int { return len(st.slots) }

// Enter marks one invocation in flight on instance i (and counts it toward
// the instance's cumulative total). The engine brackets every routed
// operation with Enter/Exit; LeastLoaded and tie-breaking read the gauges.
// Entering a Recovering instance claims its probe slot (health.go).
func (st *State) Enter(i int) {
	st.slots[i].inflight.Add(1)
	st.slots[i].total.Add(1)
	st.markProbe(i)
}

// Exit retires one in-flight invocation from instance i.
func (st *State) Exit(i int) { st.slots[i].inflight.Add(-1) }

// InFlight reports the invocations currently executing on instance i.
func (st *State) InFlight(i int) int64 { return st.slots[i].inflight.Load() }

// Total reports the cumulative invocations ever routed to instance i.
func (st *State) Total(i int) int64 { return st.slots[i].total.Load() }

// Policy selects instances for invocations. The zero value is Locality.
type Policy uint8

// Placement policies.
const (
	// Locality prefers the cheapest communication tier the pools allow:
	// same Wasm VM (user-space transfer), then same node (kernel-space),
	// then the cheapest link by LinkCost — maximizing the transfers §2.2
	// predicts Roadrunner wins on. Ties break toward the least-loaded
	// instance, so equal-cost replicas still share the work.
	Locality Policy = iota
	// LeastLoaded picks the instance (or pair) with the fewest in-flight
	// invocations, ignoring placement — the load-balancing baseline.
	LeastLoaded
	// RoundRobin cycles a cursor through the pool, blind to both placement
	// and load — the ablation baseline that pays network wire time
	// whenever pools straddle nodes.
	RoundRobin
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Locality:
		return "locality"
	case LeastLoaded:
		return "least-loaded"
	case RoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// tier ranks a (source, target) endpoint pair by communication mechanism:
// 0 shared VM (user space), 1 shared node (kernel space), 2 network.
func tier(src, dst Endpoint) int {
	switch {
	case src.VM != nil && src.VM == dst.VM:
		return 0
	case src.Node == dst.Node:
		return 1
	default:
		return 2
	}
}

// pairCost is the Locality ranking of one candidate pair: the tier first,
// then the modeled link cost (only meaningful on tier 2).
func pairCost(src, dst Endpoint, cost LinkCost) (int, time.Duration) {
	t := tier(src, dst)
	if t < 2 || cost == nil {
		return t, 0
	}
	return t, cost(src.Node, dst.Node)
}

// lessLoaded orders instances by (in-flight, cumulative, index) — the shared
// tie-break that keeps equal-cost replicas evenly used.
func lessLoaded(st *State, i, j int) bool {
	if fi, fj := st.InFlight(i), st.InFlight(j); fi != fj {
		return fi < fj
	}
	if ti, tj := st.Total(i), st.Total(j); ti != tj {
		return ti < tj
	}
	return i < j
}

// PickOne selects an instance for a peerless invocation (produce, a direct
// guest call): RoundRobin advances the cursor, the other policies pick the
// least-loaded instance. eligible, when non-nil, restricts the candidates;
// unhealthy instances (health.go) are never candidates under any policy.
// PickOne returns -1 when none qualifies.
func (p Policy) PickOne(st *State, eps []Endpoint, eligible func(int) bool) int {
	if p == RoundRobin {
		return st.nextEligible(len(eps), eligible)
	}
	best := -1
	for i := range eps {
		if !st.Eligible(i) || (eligible != nil && !eligible(i)) {
			continue
		}
		if best < 0 || lessLoaded(st, i, best) {
			best = i
		}
	}
	return best
}

// nextEligible advances the round-robin cursor to the next eligible,
// healthy index, scanning at most n positions.
func (st *State) nextEligible(n int, eligible func(int) bool) int {
	for scanned := 0; scanned < n; scanned++ {
		i := int((st.cursor.Add(1) - 1) % uint64(n))
		if st.Eligible(i) && (eligible == nil || eligible(i)) {
			return i
		}
	}
	return -1
}

// PickTarget selects the target instance for an invocation whose source
// instance is already fixed (a transfer from a function that holds its
// output, a chain hop, a fan-out leg). eligible, when non-nil, restricts
// the candidates (e.g. to instances compatible with a forced transfer
// mode); PickTarget returns -1 when none qualifies.
func (p Policy) PickTarget(src Endpoint, st *State, dst []Endpoint, eligible func(int) bool, cost LinkCost) int {
	switch p {
	case RoundRobin, LeastLoaded:
		return p.PickOne(st, dst, eligible)
	default: // Locality
		best := -1
		bestTier := 0
		var bestCost time.Duration
		for i := range dst {
			if !st.Eligible(i) || (eligible != nil && !eligible(i)) {
				continue
			}
			t, c := pairCost(src, dst[i], cost)
			switch {
			case best < 0, t < bestTier, t == bestTier && c < bestCost:
			case t == bestTier && c == bestCost && lessLoaded(st, i, best):
			default:
				continue
			}
			best, bestTier, bestCost = i, t, c
		}
		return best
	}
}

// PickPair selects both ends of an invocation when neither is pinned (the
// invoker-plane entry point Platform.InvokeCtx). eligible, when non-nil,
// restricts candidate pairs. Returns (-1, -1) when no pair qualifies.
func (p Policy) PickPair(srcSt *State, src []Endpoint, dstSt *State, dst []Endpoint, eligible func(si, di int) bool, cost LinkCost) (int, int) {
	switch p {
	case RoundRobin:
		// Cursor both sides; when an eligibility filter couples the ends,
		// scan targets (then sources) until a pair qualifies. nextEligible
		// already skips unhealthy instances on both ends.
		for scanned := 0; scanned < len(src); scanned++ {
			si := srcSt.nextEligible(len(src), nil)
			if si < 0 {
				return -1, -1
			}
			di := dstSt.nextEligible(len(dst), func(j int) bool {
				return eligible == nil || eligible(si, j)
			})
			if di >= 0 {
				return si, di
			}
		}
		return -1, -1
	case LeastLoaded:
		bi, bj := -1, -1
		for i := range src {
			if !srcSt.Eligible(i) {
				continue
			}
			for j := range dst {
				if !dstSt.Eligible(j) || (eligible != nil && !eligible(i, j)) {
					continue
				}
				if bi < 0 || pairLessLoaded(srcSt, dstSt, i, j, bi, bj) {
					bi, bj = i, j
				}
			}
		}
		return bi, bj
	default: // Locality: cheapest tier/link over the cross product.
		bi, bj := -1, -1
		bestTier := 0
		var bestCost time.Duration
		for i := range src {
			if !srcSt.Eligible(i) {
				continue
			}
			for j := range dst {
				if !dstSt.Eligible(j) || (eligible != nil && !eligible(i, j)) {
					continue
				}
				t, c := pairCost(src[i], dst[j], cost)
				switch {
				case bi < 0, t < bestTier, t == bestTier && c < bestCost:
				case t == bestTier && c == bestCost && pairLessLoaded(srcSt, dstSt, i, j, bi, bj):
				default:
					continue
				}
				bi, bj, bestTier, bestCost = i, j, t, c
			}
		}
		return bi, bj
	}
}

// pairLessLoaded orders candidate pairs by combined (in-flight, cumulative)
// load, then by index — the cross-product analogue of lessLoaded.
func pairLessLoaded(srcSt, dstSt *State, i, j, bi, bj int) bool {
	if fa, fb := srcSt.InFlight(i)+dstSt.InFlight(j), srcSt.InFlight(bi)+dstSt.InFlight(bj); fa != fb {
		return fa < fb
	}
	if ta, tb := srcSt.Total(i)+dstSt.Total(j), srcSt.Total(bi)+dstSt.Total(bj); ta != tb {
		return ta < tb
	}
	if i != bi {
		return i < bi
	}
	return j < bj
}
