// Package pagebuf provides the page-granular buffers that back the simulated
// kernel's pipes and socket buffers.
//
// The central type is Ref, a reference-counted view of a run of memory: one
// pool block — a 4 KiB page, or a slab of 16 contiguous pages under a single
// header — or an extent, a contiguous run of gifted user memory of any
// length. Moving a Ref between buffers models what splice(2) does in
// Linux: the kernel moves page references between pipe buffers instead of
// copying payload bytes. Gifting user memory into a Ref without a copy models
// vmsplice(2) with SPLICE_F_GIFT; the whole run handed to one vmsplice is one
// Ref, so the hose pays per contiguous run, not per page, and buffers split
// an extent (Slice) only where a capacity or read boundary falls inside it.
//
// pagebuf is a pure data-structure package: it performs real byte copies where
// copies are required, but it does not meter them. The simulated kernel
// (internal/kernel) is responsible for accounting.
package pagebuf

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// PageSize is the size of a simulated kernel page. It matches the 4 KiB pages
// used by Linux pipe buffers, which the paper's vmsplice/splice data hose
// moves by reference.
const PageSize = 4096

// SlabSize is the pool's second size class: 16 contiguous pages under ONE
// header, one refcount and one free-list entry. A copied run takes a slab for
// every full 64 KiB and pages for the tail, so a large write pays one header
// cache line per 64 KiB instead of sixteen, while residency stays
// page-granular (a 1-byte copy still pins one page, not a slab).
const SlabSize = 16 * PageSize

// maxFreeBytes bounds the spare memory the pool keeps for reuse across all
// shards and both size classes — 4 MiB of recycled buffer memory. Blocks
// returned beyond the bound are dropped to the garbage collector, so a burst
// that inflates the pool does not pin its high-water mark forever.
const maxFreeBytes = 4 << 20

// ErrReleased is returned when a Ref is used after its page was released.
var ErrReleased = errors.New("pagebuf: use of released page reference")

// page is a reference-counted block of memory. A page may be pool-owned
// (allocated by a Pool, returned to it when the count drops to zero) or
// gifted (an extent wrapping caller memory; simply dropped when released).
type page struct {
	data  []byte // PageSize or SlabSize long for pool blocks; the whole run for gifted
	refs  atomic.Int32
	pool  *Pool  // nil for gifted pages
	shard uint32 // home free-list shard for pool pages
}

// Ref is a view of a sub-range of a page. Refs are the unit of zero-copy
// movement: buffers pass Refs around instead of copying bytes.
type Ref struct {
	p   *page
	off int
	n   int
}

// Len reports the number of payload bytes the reference covers.
func (r Ref) Len() int { return r.n }

// Bytes returns the referenced byte range. The returned slice aliases the
// page; callers must not retain it past Release.
func (r Ref) Bytes() []byte {
	if r.p == nil {
		return nil
	}
	return r.p.data[r.off : r.off+r.n]
}

// Gifted reports whether the reference wraps caller-owned (vmspliced) memory
// rather than a pool page.
func (r Ref) Gifted() bool { return r.p != nil && r.p.pool == nil }

// Retain increments the reference count, allowing the page to be shared by
// another buffer (the tee(2) use case).
func (r Ref) Retain() Ref {
	if r.p != nil {
		r.p.refs.Add(1)
	}
	return r
}

// Release drops the reference. Pool pages whose count reaches zero return to
// their pool. Releasing an already-dead reference panics: it indicates a
// refcounting bug in the kernel simulation, which tests must surface.
func (r Ref) Release() {
	if r.p == nil {
		return
	}
	n := r.p.refs.Add(-1)
	switch {
	case n < 0:
		panic(ErrReleased)
	case n == 0 && r.p.pool != nil:
		r.p.pool.put(r.p)
	}
}

// Slice returns a sub-reference covering bytes [from, to) of r, sharing the
// same page (reference count is incremented).
func (r Ref) Slice(from, to int) Ref {
	if from < 0 || to < from || to > r.n {
		panic(fmt.Sprintf("pagebuf: slice [%d:%d) out of range for ref of %d bytes", from, to, r.n))
	}
	nr := Ref{p: r.p, off: r.off + from, n: to - from}
	if nr.p != nil {
		nr.p.refs.Add(1)
	}
	return nr
}

// Size classes of pool blocks, indexing the per-shard free lists.
const (
	classPage = iota
	classSlab
	numClasses
)

// classSize is the block length of each size class.
var classSize = [numClasses]int{classPage: PageSize, classSlab: SlabSize}

// class reports a pool block's size class.
func (p *page) class() int {
	if len(p.data) == SlabSize {
		return classSlab
	}
	return classPage
}

// poolShard is one stripe of the pool's free lists, one LIFO per size class.
// The struct fills a cache line so two cores recycling blocks do not
// false-share.
type poolShard struct {
	mu sync.Mutex
	//roadvet:guards mu
	free [numClasses][]*page
	_    [8]byte
}

// Pool allocates and recycles pages, tracking resident bytes so the metrics
// layer can report kernel-buffer memory usage.
//
// The free lists are striped across GOMAXPROCS-sized shards (rounded up to a
// power of two for cheap masking, and few enough that a shard's share of
// maxFreeBytes still holds a slab). An allocation run starts at one shard —
// AppendCopy pops the recycled blocks of a class under a single lock hold —
// and a released block returns to the shard it came from, so parallel
// transfers recycle blocks without funnelling through one mutex. Resident
// and peak accounting stay exact: they are global atomics updated once per
// batch with the batch's full byte count.
type Pool struct {
	shards []poolShard
	mask   uint32 // len(shards) - 1; shard count is a power of two
	share  int    // maxFreeBytes / len(shards): the bytes one shard may cache
	cursor atomic.Uint32

	resident atomic.Int64 // bytes currently held by live pool pages
	peak     atomic.Int64
}

// NewPool returns an empty page pool striped for the current GOMAXPROCS.
func NewPool() *Pool {
	n := 1
	for n < runtime.GOMAXPROCS(0) && 2*n*SlabSize <= maxFreeBytes {
		n <<= 1
	}
	return &Pool{shards: make([]poolShard, n), mask: uint32(n - 1), share: maxFreeBytes / n}
}

// Resident reports the number of bytes in live (referenced) pool pages.
func (pl *Pool) Resident() int64 { return pl.resident.Load() }

// PeakResident reports the maximum observed resident size.
func (pl *Pool) PeakResident() int64 { return pl.peak.Load() }

// account records a batch of got pages against the resident gauge and
// advances the peak watermark.
func (pl *Pool) account(bytes int64) {
	res := pl.resident.Add(bytes)
	for {
		peak := pl.peak.Load()
		if res <= peak || pl.peak.CompareAndSwap(peak, res) {
			return
		}
	}
}

// put returns a single dead block to its home shard.
func (pl *Pool) put(p *page) {
	pl.resident.Add(-int64(len(p.data)))
	sh := &pl.shards[p.shard]
	sh.mu.Lock()
	sh.keep(pl.share, p)
	sh.mu.Unlock()
}

// keep caches p if it fits the shard's share of the free-memory budget. The
// two classes draw on the one budget, first come first kept, so a staged
// payload the size of the whole cache recycles entirely as slabs. Caller
// holds sh.mu.
func (sh *poolShard) keep(share int, p *page) {
	if len(sh.free[classPage])*PageSize+len(sh.free[classSlab])*SlabSize+len(p.data) <= share {
		c := p.class()
		sh.free[c] = append(sh.free[c], p)
	}
}

// putBatch returns a run of dead blocks, one lock hold per contiguous
// same-shard group (a run allocated together comes from one shard, so the
// common case is a single hold).
func (pl *Pool) putBatch(pages []*page) {
	for i := 0; i < len(pages); {
		s := pages[i].shard
		bytes := 0
		sh := &pl.shards[s]
		sh.mu.Lock()
		for ; i < len(pages) && pages[i].shard == s; i++ {
			bytes += len(pages[i].data)
			sh.keep(pl.share, pages[i])
		}
		sh.mu.Unlock()
		pl.resident.Add(-int64(bytes))
	}
}

// blocksFor splits a copied run of n bytes into its size classes: a slab for
// every full SlabSize, pages for the tail.
func blocksFor(n int) (slabs, pages int) {
	return n / SlabSize, (n%SlabSize + PageSize - 1) / PageSize
}

// take appends need blocks of class c to refs: recycled ones popped shard by
// shard starting at si — a run that outsizes one shard's cache steals from
// the others before falling back to fresh allocation, one lock hold per shard
// visited (one total in the common case of a run within the home shard).
func (pl *Pool) take(refs []Ref, si uint32, c, need int) []Ref {
	for i := uint32(0); i <= pl.mask && need > 0; i++ {
		sh := &pl.shards[(si+i)&pl.mask]
		sh.mu.Lock()
		free := sh.free[c]
		n := min(need, len(free))
		for _, p := range free[len(free)-n:] {
			refs = append(refs, Ref{p: p})
		}
		sh.free[c] = free[:len(free)-n]
		sh.mu.Unlock()
		need -= n
	}
	for ; need > 0; need-- {
		refs = append(refs, Ref{p: &page{data: make([]byte, classSize[c]), pool: pl, shard: si}})
	}
	return refs
}

// AppendCopy copies b into pool blocks — a slab for every full SlabSize of
// the run, pages for the tail — and appends the references to refs, returning
// the extended slice. It is the batched allocation path: the recycled blocks
// of each class are popped from one shard under one lock hold, fresh blocks
// fill the remainder, and the resident/peak accounting is one atomic update
// for the whole run. Passing a pre-sized refs slice makes the call
// allocation-free. This models copy_from_user into kernel pages (e.g. a
// plain write(2) to a pipe or socket); the copy is real; the caller meters
// it.
func (pl *Pool) AppendCopy(refs []Ref, b []byte) []Ref {
	if len(b) == 0 {
		return refs
	}
	slabs, pages := blocksFor(len(b))
	base := len(refs)
	si := pl.cursor.Add(1) & pl.mask
	refs = pl.take(refs, si, classSlab, slabs)
	refs = pl.take(refs, si, classPage, pages)
	pl.account(int64(slabs)*SlabSize + int64(pages)*PageSize)
	for i := base; i < len(refs); i++ {
		p := refs[i].p
		p.refs.Store(1)
		refs[i].off = 0
		refs[i].n = copy(p.data, b)
		b = b[refs[i].n:]
	}
	return refs
}

// Copy copies b into freshly allocated pool blocks and returns the references.
func (pl *Pool) Copy(b []byte) []Ref {
	if len(b) == 0 {
		return nil
	}
	slabs, pages := blocksFor(len(b))
	return pl.AppendCopy(make([]Ref, 0, slabs+pages), b)
}

// AppendGift wraps caller memory in one page reference without copying,
// appending it to refs: a contiguous run travels as a single extent, one
// header however long the run. The header lives until the last reference
// to the extent drains and is the call's only allocation when refs is
// pre-sized; consumers that need less than the whole run take it with Slice.
func AppendGift(refs []Ref, b []byte) []Ref {
	if len(b) == 0 {
		return refs
	}
	p := &page{data: b}
	p.refs.Store(1)
	return append(refs, Ref{p: p, n: len(b)})
}

// Gift wraps caller memory in a page reference without copying. This models
// vmsplice(2) with SPLICE_F_GIFT: the caller cedes ownership of b and must
// not modify it while the reference (or any slice of it) is live.
func Gift(b []byte) []Ref {
	return AppendGift(nil, b)
}

// TotalLen sums the payload length of a reference run.
func TotalLen(refs []Ref) int {
	n := 0
	for _, r := range refs {
		n += r.n
	}
	return n
}

// ReleaseAll releases every reference in refs, returning pages that die
// together to their pool in shard-grouped batches instead of one put per
// page. The scratch buffer lives on the stack, so the batching itself
// allocates nothing.
func ReleaseAll(refs []Ref) {
	var scratch [16]*page
	dead := scratch[:0]
	var pool *Pool
	for _, r := range refs {
		if r.p == nil {
			continue
		}
		n := r.p.refs.Add(-1)
		if n < 0 {
			panic(ErrReleased)
		}
		if n != 0 || r.p.pool == nil {
			continue
		}
		if r.p.pool != pool || len(dead) == cap(dead) {
			if pool != nil {
				pool.putBatch(dead)
			}
			dead = dead[:0]
			pool = r.p.pool
		}
		dead = append(dead, r.p)
	}
	if pool != nil {
		pool.putBatch(dead)
	}
}
