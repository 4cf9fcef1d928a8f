package core

import (
	"sync"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/pagebuf"
)

// Channel-cache limits, the same for every shim.
const (
	// chanMaxIdle is how long an unused cached channel survives before the
	// next acquisition evicts it.
	chanMaxIdle = 30 * time.Second
	// chanMaxCached bounds the cached channels one shim originates; beyond
	// it the least recently used channel is evicted.
	chanMaxCached = 16
)

// kernelSendWindow is the SO_SNDBUF of the kernel-mode socketpair: four
// slabs. It is the bound on what the source's write may queue ahead of a
// receive that has not arrived — a writer that fills it parks, handing its
// core to the ingress stage — and the ceiling on the kernel memory a
// transfer holds whatever its payload: 256 KiB queued, or, once the two
// calls have met and relay (kernel.sendWindow), one block per thread. It is
// not a pipeline depth: as a conveyor between the two stages it parked each
// side 11–13 times per 4 MiB (measured, ISSUE 23), which is why nothing is
// queued through it any more once both ends are there.
const kernelSendWindow = 4 * pagebuf.SlabSize

// chanKind distinguishes the two channel flavors: the same-node socketpair
// and the cross-node connection of Algorithm 1.
type chanKind uint8

const (
	// chanKernel is the same-node socketpair IPC channel (§4.2).
	chanKernel chanKind = iota
	// chanNetwork is the cross-node channel: a TCP-like connection.
	chanNetwork
)

// chanKey identifies one cached channel in its source shim's registry.
type chanKey struct {
	dst  *Shim
	kind chanKind
}

// channel is one persistent connection between an ordered (source, target)
// shim pair: two socket ends, srcFD in the source's sandbox and dstFD in the
// target's. The control plane — connection handshake or socketpair — runs
// once at establishment; every subsequent transfer between the pair reuses
// the descriptors and pays only data-plane syscalls. The virtual data hose
// of Algorithm 1 is not the channel's but each shim's own (Shim.hoseR/W). A
// channel is used only under its pair lock (Shim.pairLock), which
// serializes every transfer of the ordered pair, so its descriptors never
// see two transfers' operations concurrently — the overlapped source and
// target stages of ONE transfer do touch opposite ends of the channel at the
// same time, which is exactly what a socket supports.
type channel struct {
	src, dst     *Shim
	kind         chanKind
	srcFD, dstFD int

	// lastUsed drives idle eviction; guarded by src.chanMu.
	lastUsed time.Time
	// cached marks registry membership; per-call (ephemeral) channels are
	// never registered and are destroyed by their transfer.
	cached bool
	// pins counts in-flight operations (transfers, multicast acquisitions)
	// currently holding the channel; a pinned channel is excluded from
	// idle/LRU eviction. Stage-scoped transfers hold channels without any
	// VM lock, so pinning is what keeps a concurrent transfer of another
	// pair from evicting a connection that is mid-payload. Guarded by
	// src.chanMu.
	pins int
}

// pin marks the channel as held by one more in-flight operation, shielding
// it from eviction until the matching unpin. No-op for ephemeral channels.
func (c *channel) pin() {
	if !c.cached {
		return
	}
	c.src.chanMu.Lock()
	c.pins++
	c.src.chanMu.Unlock()
}

// unpin releases one pin.
func (c *channel) unpin() {
	if !c.cached {
		return
	}
	c.src.chanMu.Lock()
	c.pins--
	c.src.chanMu.Unlock()
}

// establishChannel issues the control-plane syscalls for a fresh channel.
// Callers hold the pair lock and have validated placement (same kernel for
// chanKernel, different kernels for chanNetwork).
func establishChannel(src, dst *Shim, kind chanKind) (*channel, error) {
	c := &channel{src: src, dst: dst, kind: kind}
	if kind == chanNetwork {
		c.srcFD, c.dstFD = kernel.Connect(src.proc, dst.proc)
		return c, nil
	}
	fdA, fdB, err := kernel.SocketPairSized(src.proc, dst.proc, kernelSendWindow)
	if err != nil {
		return nil, err
	}
	c.srcFD, c.dstFD = fdA, fdB
	return c, nil
}

// destroy tears the channel down: it is removed from both shims' registries
// and both socket ends are closed (draining any stranded payload back to
// the page pool). Called on idle/LRU eviction, on shim Close, after every
// per-call (uncached) transfer, and on transfer errors — a failed transfer
// may leave bytes queued in the socket, so the channel is poisoned and must
// not be reused. Destroy is idempotent: descriptors never recycle in the
// simulated kernel, so a second close is a harmless EBADF.
func (c *channel) destroy() {
	if c.cached {
		c.src.chanMu.Lock()
		if c.src.channels[chanKey{c.dst, c.kind}] == c {
			delete(c.src.channels, chanKey{c.dst, c.kind})
		}
		c.src.chanMu.Unlock()
		c.dst.chanMu.Lock()
		delete(c.dst.inbound, c)
		c.dst.chanMu.Unlock()
	}
	c.closeFDs()
}

// closeFDs closes both socket ends, draining any stranded payload back to
// the page pool. Closing an already-closed descriptor is a harmless EBADF
// (descriptors never recycle).
func (c *channel) closeFDs() {
	_ = c.src.proc.Close(c.srcFD)
	_ = c.dst.proc.Close(c.dstFD)
}

// acquireChannel returns the persistent src→dst channel of the given kind,
// establishing it on first use, and reports whether it was a cache hit. The
// returned channel is pinned; the caller must unpin it when its operation
// completes. Idle channels of the source shim are evicted on the way, and
// the registry is bounded by LRU eviction. Callers hold the pair lock
// (Shim.pairLock), which serializes acquisition and all data-plane use of
// the returned channel; chanMu only protects the registries against Close
// and against evictions by transfers of other pairs, and is never held
// while taking another lock.
func (s *Shim) acquireChannel(dst *Shim, kind chanKind) (*channel, bool, error) {
	now := s.now()
	key := chanKey{dst, kind}

	s.chanMu.Lock()
	c, ok := s.channels[key]
	var evicted []*channel
	// A stale channel of the requested pair is evicted too: the acquisition
	// misses and re-establishes, honoring the idle bound even for pairs
	// that are only ever used sparsely.
	if ok && c.pins == 0 && now.Sub(c.lastUsed) > s.chanIdle {
		delete(s.channels, key)
		evicted = append(evicted, c)
		s.chanEvictions++
		c, ok = nil, false
	}
	for k, v := range s.channels {
		if v != c && v.pins == 0 && now.Sub(v.lastUsed) > s.chanIdle {
			delete(s.channels, k)
			evicted = append(evicted, v)
			s.chanEvictions++
		}
	}
	if ok {
		c.lastUsed = now
		c.pins++ // pinned under the same chanMu hold that found it
		s.chanHits++
	} else {
		s.chanMisses++
	}
	s.chanMu.Unlock()
	for _, v := range evicted {
		v.destroy()
	}
	if ok {
		return c, true, nil
	}

	// Miss: establish under the pair lock we already hold. No other
	// transfer of this pair can race the insert (it would need the same
	// pair lock).
	c, err := establishChannel(s, dst, kind)
	if err != nil {
		return nil, false, err
	}
	c.cached = true
	c.lastUsed = now
	c.pins = 1

	// Trim back to the cap, oldest first, skipping the new channel and
	// any channel pinned by an in-flight operation (a multicast wider than
	// the cap may briefly hold more until its pins release; the next
	// acquisition trims the excess).
	var lrus []*channel
	s.chanMu.Lock()
	if s.channels == nil {
		s.channels = make(map[chanKey]*channel)
	}
	s.channels[key] = c
	for len(s.channels) > s.chanCap {
		var lru *channel
		var lruKey chanKey
		for k, v := range s.channels {
			if v != c && v.pins == 0 && (lru == nil || v.lastUsed.Before(lru.lastUsed)) {
				lru, lruKey = v, k
			}
		}
		if lru == nil {
			break // everything else is pinned or new
		}
		delete(s.channels, lruKey)
		s.chanEvictions++
		lrus = append(lrus, lru)
	}
	s.chanMu.Unlock()

	dst.chanMu.Lock()
	if dst.inbound == nil {
		dst.inbound = make(map[*channel]struct{})
	}
	dst.inbound[c] = struct{}{}
	dst.chanMu.Unlock()

	for _, lru := range lrus {
		lru.destroy()
	}
	return c, false, nil
}

// acquireTransferChannel is the channel entry of every transfer leg: it
// acquires (or, perCall, freshly establishes) the channel, measures the
// cold establishment time and charges it to src as kernel CPU. The caller
// must pair it with releaseTransferChannel on every exit path, passing the
// transfer's outcome. Cached channels come back pinned; release unpins
// them. (An explicit release call, not a returned closure: allocating a
// capture per transfer would put a heap object on the zero-alloc hot path.)
func acquireTransferChannel(src, dst *Shim, kind chanKind, perCall bool) (*channel, time.Duration, error) {
	sw := metrics.NewStopwatch(src.now)
	var (
		c   *channel
		hit bool
		err error
	)
	if perCall {
		c, err = establishChannel(src, dst, kind)
	} else {
		c, hit, err = src.acquireChannel(dst, kind)
	}
	if err != nil {
		return nil, 0, err
	}
	var setup time.Duration
	if !hit {
		setup = sw.Lap()
		src.acct.CPU(metrics.Kernel, setup)
	}
	return c, setup, nil
}

// releaseTransferChannel ends a transfer's use of its channel: failed
// transfers poison the channel (payload may be stranded in it), and
// per-call (uncached) channels always tear down, matching Algorithm 1's
// close_all.
func releaseTransferChannel(c *channel, healthy bool) {
	c.unpin()
	if !c.cached || !healthy {
		c.destroy()
	}
}

// pairLock returns the mutex serializing every transfer of the ordered
// (s → dst, kind) pair. It is the outermost lock of the staged data plane
// (see pipeline.go): a transfer holds its pair lock for its whole duration
// and takes VM locks one at a time underneath it, so same-pair transfers
// serialize (they share one cached channel) while transfers of different
// pairs — including pairs sharing a VM — interleave stage by stage.
// Entries are created on demand and live for the shim's lifetime; the map
// is guarded by chanMu, which is released before the returned mutex is
// ever taken.
func (s *Shim) pairLock(dst *Shim, kind chanKind) *sync.Mutex {
	key := chanKey{dst, kind}
	s.chanMu.Lock()
	defer s.chanMu.Unlock()
	if s.pairMu == nil {
		s.pairMu = make(map[chanKey]*sync.Mutex)
	}
	m := s.pairMu[key]
	if m == nil {
		m = new(sync.Mutex)
		s.pairMu[key] = m
	}
	return m
}

// PoisonChannels force-closes the descriptors of every cached channel the
// shim originates while leaving the stale entries registered — simulating a
// peer reset the cache cannot see. The next transfer acquiring a poisoned
// channel gets a cache hit, fails its first data-plane call with EBADF, and
// the failure path destroys the channel (idempotently — descriptors never
// recycle) so a later transfer of the pair re-establishes a fresh channel.
// Returns the number of channels poisoned. It is the channel-level fault of
// the chaos taxonomy; node- and shim-level faults are injected at the
// kernel layer.
func (s *Shim) PoisonChannels() int {
	s.chanMu.Lock()
	stale := make([]*channel, 0, len(s.channels))
	for _, c := range s.channels {
		stale = append(stale, c)
	}
	s.chanMu.Unlock()
	for _, c := range stale {
		c.closeFDs()
	}
	return len(stale)
}

// PruneChannels destroys every currently unpinned cached channel the shim
// originates, draining stranded pages and closing descriptors. Chaos tests
// use it to quiesce a deployment back to a channel-free steady state before
// comparing conservation baselines, since randomized rerouting establishes
// channels for pairs the baseline snapshot never saw.
func (s *Shim) PruneChannels() int {
	s.chanMu.Lock()
	victims := make([]*channel, 0, len(s.channels))
	for k, c := range s.channels {
		if c.pins == 0 {
			delete(s.channels, k)
			victims = append(victims, c)
			s.chanEvictions++
		}
	}
	s.chanMu.Unlock()
	for _, c := range victims {
		c.destroy()
	}
	return len(victims)
}

// closeChannels destroys every channel the shim participates in, as source
// or target. Part of Shim.Close; like the rest of teardown it must not run
// concurrently with transfers involving this shim.
func (s *Shim) closeChannels() {
	s.chanMu.Lock()
	all := make([]*channel, 0, len(s.channels)+len(s.inbound))
	for _, c := range s.channels {
		all = append(all, c)
	}
	for c := range s.inbound {
		all = append(all, c)
	}
	s.channels, s.inbound = nil, nil
	s.chanMu.Unlock()
	for _, c := range all {
		c.destroy()
	}
}

// ChannelStats counts channel-cache activity for one shim (or,
// aggregated, for a whole deployment): Hits and Misses split warm from cold
// transfers, Evictions counts idle/LRU teardowns, and Active is the number
// of channels currently cached with this shim as the source.
type ChannelStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Active    int
}

// Add returns the component-wise sum (Active included: shims cache disjoint
// channel sets, so deployment-wide Active is the plain sum).
func (st ChannelStats) Add(o ChannelStats) ChannelStats {
	return ChannelStats{
		Hits:      st.Hits + o.Hits,
		Misses:    st.Misses + o.Misses,
		Evictions: st.Evictions + o.Evictions,
		Active:    st.Active + o.Active,
	}
}

// ChannelStats reports the shim's channel-cache counters.
func (s *Shim) ChannelStats() ChannelStats {
	s.chanMu.Lock()
	defer s.chanMu.Unlock()
	return ChannelStats{
		Hits:      s.chanHits,
		Misses:    s.chanMisses,
		Evictions: s.chanEvictions,
		Active:    len(s.channels),
	}
}
