// Package netsim models the network of the paper's testbed: nodes joined by
// one bandwidth-limited link (100 Mbps, 1 ms RTT in §6.2, shaped with tc).
// Every pair of distinct nodes crosses that same Link; DefaultLoopback
// models a node talking to itself, for the baselines. Payload bytes move
// instantly inside the process; the time they would have spent on the wire
// is computed analytically and reported as the Network component of a
// latency breakdown.
//
// The model is fluid: concurrent flows on a link share its bandwidth equally,
// so a flow of B bytes competing with F-1 identical flows completes in
// RTT + B·F/bandwidth. This reproduces the regime the paper's inter-node
// experiments sit in — network transfer dominates and fan-out degree divides
// effective per-flow bandwidth — without real packet pacing.
package netsim

import (
	"fmt"
	"time"
)

// Bandwidth is a link rate in bits per second.
type Bandwidth int64

// Common bandwidth units.
const (
	Kbps Bandwidth = 1_000
	Mbps Bandwidth = 1_000_000
	Gbps Bandwidth = 1_000_000_000
)

// String renders the bandwidth with a binary-free SI unit.
func (b Bandwidth) String() string {
	switch {
	case b >= Gbps:
		return fmt.Sprintf("%.3gGbps", float64(b)/float64(Gbps))
	case b >= Mbps:
		return fmt.Sprintf("%.3gMbps", float64(b)/float64(Mbps))
	case b >= Kbps:
		return fmt.Sprintf("%.3gKbps", float64(b)/float64(Kbps))
	default:
		return fmt.Sprintf("%dbps", int64(b))
	}
}

// Link is a point-to-point connection with fixed bandwidth and round-trip
// time. It is immutable, so any number of transfers may model their wire
// time on one Link concurrently. The zero value is unusable; construct with
// NewLink.
type Link struct {
	bw  Bandwidth
	rtt time.Duration
}

// NewLink returns a link with the given bandwidth and round-trip time.
func NewLink(bw Bandwidth, rtt time.Duration) *Link {
	if bw <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	return &Link{bw: bw, rtt: rtt}
}

// Bandwidth reports the link's configured rate.
func (l *Link) Bandwidth() Bandwidth { return l.bw }

// RTT reports the link's configured round-trip time.
func (l *Link) RTT() time.Duration { return l.rtt }

// TransferTime models the wire time for moving `bytes` payload bytes while
// `flows` identical flows share the link (flows < 1 is treated as 1):
//
//	RTT + bytes·8·flows / bandwidth
//
// One RTT accounts for connection establishment / first-byte latency, as in
// the paper's observed stable 1 ms inter-node RTT.
func (l *Link) TransferTime(bytes int64, flows int) time.Duration {
	if flows < 1 {
		flows = 1
	}
	if bytes < 0 {
		bytes = 0
	}
	wire := time.Duration(float64(bytes*8*int64(flows)) / float64(l.bw) * float64(time.Second))
	return l.rtt + wire
}

// DefaultLoopback mirrors in-memory loopback: effectively unconstrained
// bandwidth with a small fixed latency.
func DefaultLoopback() *Link { return NewLink(20*Gbps, 50*time.Microsecond) }
