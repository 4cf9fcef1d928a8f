package core

import (
	"sync"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
)

// KernelSendWindow exposes the kernel channel's send window to the tests
// that pin staged memory against it.
const KernelSendWindow = kernelSendWindow

// DepositPiece exposes the striped drain's piece size to the tests that
// deliver at its edges.
const DepositPiece = depositPiece

// ClaimGates returns pipeline gates whose claimed hook runs in whichever
// depositor of a striped drain takes a piece of n bytes off the deposit
// slot, right after it took it and before it copies it.
func ClaimGates(claimed func(byCaller bool, n int)) *PipelineGates {
	return &PipelineGates{claimed: claimed}
}

// referenceSums memoizes ReferenceSum by n.
var referenceSums sync.Map

// ReferenceSum is the guest checksum of the n-byte payload produce writes,
// computed once per n: the striped tests deliver megabytes many times over,
// and under -race the Go reference is as slow as the guest.
func ReferenceSum(n int) uint64 {
	sum, ok := referenceSums.Load(n)
	if !ok {
		sum, _ = referenceSums.LoadOrStore(n, guest.ReferenceChecksum(guest.ReferenceProduce(n)))
	}
	return sum.(uint64)
}

// SetChannelLimits gives a fresh shim a clock and channel-cache limits other
// than time.Now, chanMaxIdle and chanMaxCached, for the eviction tests; a
// nil clock or a zero limit keeps the default. Call it before the shim's
// first transfer. The staged pipeline reads the clock from both stage
// goroutines, so it must be safe for concurrent use.
func SetChannelLimits(s *Shim, now func() time.Time, idle time.Duration, cap int) {
	if now != nil {
		s.now = now
	}
	if idle > 0 {
		s.chanIdle = idle
	}
	if cap > 0 {
		s.chanCap = cap
	}
}

// HoseQueued reports the bytes queued in s's hose, read under its VM lock:
// zero whenever no stage holds the lock.
func HoseQueued(s *Shim) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, err := s.proc.Pending(s.hoseR)
	if err != nil {
		return -1
	}
	return n
}

// UncachedGates returns pipeline gates that give every leg an ephemeral
// channel, established and closed around the transfer: the paper's per-call
// Algorithm 1, the reference trace the cached path is checked against.
func UncachedGates() *PipelineGates {
	return &PipelineGates{uncached: true}
}
