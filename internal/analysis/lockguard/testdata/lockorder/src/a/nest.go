// Package a exercises lockguard's nesting rule on the VM-lock protocol
// around Shim.mu, under which VM locks never nest.
package a

import "sync"

// Shim mimics the core sidecar: mu is the VM lock.
type Shim struct {
	mu        sync.Mutex
	coldStart int // roadvet:guards mu
}

// The nesting rule: no goroutine holds two locks of one guard field, so
// transfer A→B locking (A, B) cannot race transfer B→A locking (B, A).

// transferDeadlock reproduces the AB/BA hazard.
func transferDeadlock(src, dst *Shim) {
	src.mu.Lock()
	dst.mu.Lock() // want "nested lock acquisition: dst.mu taken while another Shim.mu is held"
	dst.mu.Unlock()
	src.mu.Unlock()
}

// sequential takes the locks one at a time; never nested, no diagnostic.
func sequential(a, b *Shim) {
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Lock()
	b.mu.Unlock()
}

// reacquireAfterBranch drops the lock on one path and takes another; the
// held-set tracking must not confuse the paths.
func reacquireAfterBranch(a, b *Shim, flip bool) {
	a.mu.Lock()
	if flip {
		a.mu.Unlock()
		b.mu.Lock()
		b.mu.Unlock()
		return
	}
	a.mu.Unlock()
}

// deferredUnlock holds across the body; taking another shim's lock under
// it is still a nesting violation.
func deferredUnlock(a, b *Shim) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want "nested lock acquisition: b.mu taken while another Shim.mu is held"
	defer b.mu.Unlock()
	return a.coldStart + b.coldStart
}

// lockPeer takes the peer's lock in a helper. Its caller holds another
// Shim.mu the helper cannot name; that lock stays in the entry set under
// an anonymous base, so the nesting is still found.
func lockPeer(peer *Shim) {
	peer.mu.Lock() // want "nested lock acquisition: peer.mu taken while another Shim.mu is held"
	peer.coldStart++
	peer.mu.Unlock()
}

// relayThroughHelper nests through a call.
func relayThroughHelper(src, dst *Shim) {
	src.mu.Lock()
	lockPeer(dst)
	src.mu.Unlock()
}
