// Package a exercises the lockorder analyzer: a mimic of the VM-lock
// protocol around Shim.mu, under which VM locks never nest.
package a

import "sync"

// Shim mimics core.Shim: mu is the VM lock.
type Shim struct {
	mu sync.Mutex
	id int
}

// transferDeadlock reproduces the AB/BA hazard: transfer A→B locking
// (A, B) races transfer B→A locking (B, A).
func transferDeadlock(src, dst *Shim) {
	src.mu.Lock()
	dst.mu.Lock() // want "nested VM-lock"
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

// reacquireAfterBranch drops the lock on one path and re-takes it; the
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
	b.mu.Lock() // want "nested VM-lock"
	defer b.mu.Unlock()
	return a.id + b.id
}
