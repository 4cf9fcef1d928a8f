package pagebuf

import (
	"errors"
	"io"
	"sync"
)

// ErrClosedRing is returned when writing to a closed ring (EPIPE).
var ErrClosedRing = errors.New("pagebuf: ring closed")

// Ring is a bounded FIFO of page references with blocking semantics. It backs
// both pipes (the paper's virtual data hose) and socket buffers in the
// simulated kernel. Capacity is expressed in bytes, rounded to whole pages,
// mirroring the fixed number of pipe buffers in Linux.
//
// The reference queue is a circular buffer: pushes and pops move head/count
// indices instead of re-slicing, so once the backing array has grown to the
// ring's working set the steady state enqueues and dequeues without
// allocating — the head-slide append/re-slice FIFO this replaces allocated
// on every wrap. ReadInto copies straight out of the queued references under
// the lock, so the drain loop of a warm transfer performs no allocation at
// all.
type Ring struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	buf      []Ref // circular; buf[head..head+count) are live
	head     int
	count    int
	size     int // payload bytes queued
	capacity int
	closed   bool // write side closed; reads drain then return io.EOF
}

// NewRing returns a ring holding up to capacity payload bytes.
// The default Linux pipe holds 16 pages (64 KiB).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 16 * PageSize
	}
	r := &Ring{capacity: capacity}
	r.notEmpty.L = &r.mu
	r.notFull.L = &r.mu
	return r
}

// Cap reports the ring's capacity in bytes.
func (r *Ring) Cap() int { return r.capacity }

// Len reports the number of payload bytes currently queued.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// Close closes the write side. Queued data remains readable; once drained,
// reads return io.EOF. Blocked writers fail with ErrClosedRing.
func (r *Ring) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.notEmpty.Broadcast()
	r.notFull.Broadcast()
}

// pushOne appends one reference to the circular buffer, growing the backing
// array only when the working set exceeds everything seen before. Caller
// holds r.mu.
func (r *Ring) pushOne(ref Ref) {
	if r.count == len(r.buf) {
		grown := make([]Ref, max(16, 2*len(r.buf)))
		for i := 0; i < r.count; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = grown
		r.head = 0
	}
	r.buf[(r.head+r.count)%len(r.buf)] = ref
	r.count++
	r.size += ref.n
}

// popOne removes and returns the head reference, clearing the slot so the
// ring does not pin a dead page. Caller holds r.mu and ensures count > 0.
func (r *Ring) popOne() Ref {
	ref := r.buf[r.head]
	r.buf[r.head] = Ref{}
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	r.size -= ref.n
	return ref
}

// Push queues page references, blocking while the ring is over capacity.
// Ownership of the references transfers to the ring. Push accepts a run that
// is larger than the remaining capacity by enqueueing it in steps, exactly as
// a pipe write larger than the pipe buffer proceeds in chunks: a reference
// that fits the page-rounded free capacity goes in whole, and a larger one
// (an extent, or a slab entering a small pipe) goes in as whole-page slices
// of what fits, so the ring never holds a full page more than its capacity.
func (r *Ring) Push(refs []Ref) error {
	r.mu.Lock()
	for i, rest := range refs {
		for {
			for r.size >= r.capacity && !r.closed {
				r.notFull.Wait()
			}
			if r.closed {
				r.mu.Unlock()
				// Drop the remainder; the caller observed EPIPE. Slices
				// already queued hold their own counts, so refs[i] still
				// carries exactly the one reference of its unpushed tail.
				ReleaseAll(refs[i:])
				return ErrClosedRing
			}
			room := (r.capacity - r.size + PageSize - 1) &^ (PageSize - 1)
			if rest.n <= room {
				r.pushOne(rest)
				r.notEmpty.Signal()
				break
			}
			r.pushOne(rest.Slice(0, room))
			r.notEmpty.Signal()
			rest.off += room
			rest.n -= room
		}
	}
	r.mu.Unlock()
	return nil
}

// PopAppend dequeues up to max payload bytes as page references, appending
// them to dst and blocking until at least one byte is available or the ring
// is closed (then io.EOF). Ownership of the appended references transfers to
// the caller; passing a pre-sized dst makes the call allocation-free.
// References are split as needed so the appended run never exceeds max
// bytes.
func (r *Ring) PopAppend(dst []Ref, max int) ([]Ref, error) {
	if max <= 0 {
		return dst, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.size == 0 {
		if r.closed {
			return dst, io.EOF
		}
		r.notEmpty.Wait()
	}
	taken := 0
	for taken < max && r.count > 0 {
		ref := r.buf[r.head]
		if taken+ref.n <= max {
			dst = append(dst, r.popOne())
			taken += ref.n
		} else {
			// Split in place: hand out a retained sub-reference and shrink
			// the queued head, with no release/re-retain churn.
			want := max - taken
			dst = append(dst, ref.Slice(0, want))
			r.buf[r.head].off += want
			r.buf[r.head].n -= want
			r.size -= want
			taken = max
		}
	}
	r.notFull.Broadcast()
	return dst, nil
}

// Pop dequeues up to max payload bytes as page references (see PopAppend).
func (r *Ring) Pop(max int) ([]Ref, error) {
	return r.PopAppend(nil, max)
}

// Clone appends to dst retained references to the first max queued bytes
// without dequeuing them — tee(2) semantics: the data remains readable from
// this ring while the appended references can be pushed elsewhere. Blocks
// until at least one byte is queued; returns io.EOF on a drained, closed
// ring. Like PopAppend, a pre-sized dst makes the call allocation-free.
func (r *Ring) Clone(dst []Ref, max int) ([]Ref, error) {
	if max <= 0 {
		return dst, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.size == 0 {
		if r.closed {
			return dst, io.EOF
		}
		r.notEmpty.Wait()
	}
	taken := 0
	for i := 0; i < r.count && taken < max; i++ {
		ref := r.buf[(r.head+i)%len(r.buf)]
		ref = ref.Slice(0, min(ref.n, max-taken))
		dst = append(dst, ref)
		taken += ref.n
	}
	return dst, nil
}

// ReadInto copies queued bytes into dst (copy_to_user), blocking until at
// least one byte is available. It returns the number of bytes copied and
// io.EOF once the ring is closed and drained. The copy is real; the caller
// meters it. The copy happens directly out of the queued references — no
// intermediate reference slice is materialized — so a warm drain loop does
// not allocate.
func (r *Ring) ReadInto(dst []byte) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	r.mu.Lock()
	for r.size == 0 {
		if r.closed {
			r.mu.Unlock()
			return 0, io.EOF
		}
		r.notEmpty.Wait()
	}
	var scratch [16]*page
	dead := scratch[:0]
	n := 0
	var pool *Pool
	for n < len(dst) && r.count > 0 {
		ref := r.buf[r.head]
		c := copy(dst[n:], ref.Bytes())
		n += c
		if c == ref.n {
			got := r.popOne()
			// Inline the release so dead pool pages return in shard
			// batches; gifted pages just drop.
			if p := got.p; p != nil {
				refs := p.refs.Add(-1)
				if refs < 0 {
					panic(ErrReleased)
				}
				if refs == 0 && p.pool != nil {
					if p.pool != pool || len(dead) == cap(dead) {
						if pool != nil {
							pool.putBatch(dead)
						}
						dead = dead[:0]
						pool = p.pool
					}
					dead = append(dead, p)
				}
			}
		} else {
			r.buf[r.head].off += c
			r.buf[r.head].n -= c
			r.size -= c
		}
	}
	r.notFull.Broadcast()
	r.mu.Unlock()
	if pool != nil {
		pool.putBatch(dead)
	}
	return n, nil
}

// Drain removes and releases everything queued. Used on connection teardown.
func (r *Ring) Drain() {
	r.mu.Lock()
	refs := make([]Ref, 0, r.count)
	for r.count > 0 {
		refs = append(refs, r.popOne())
	}
	r.mu.Unlock()
	ReleaseAll(refs)
	r.notFull.Broadcast()
}
