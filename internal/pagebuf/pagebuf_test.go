package pagebuf

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func TestCopyRoundTrip(t *testing.T) {
	pool := NewPool()
	for _, size := range []int{0, 1, PageSize - 1, PageSize, PageSize + 1, 3*PageSize + 17} {
		src := make([]byte, size)
		for i := range src {
			src[i] = byte(i * 31)
		}
		refs := pool.Copy(src)
		if got := TotalLen(refs); got != size {
			t.Fatalf("size %d: TotalLen = %d", size, got)
		}
		var back []byte
		for _, r := range refs {
			back = append(back, r.Bytes()...)
		}
		if !bytes.Equal(back, src) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
		ReleaseAll(refs)
	}
	if pool.Resident() != 0 {
		t.Fatalf("resident after release = %d, want 0", pool.Resident())
	}
}

func TestCopyDoesNotAliasSource(t *testing.T) {
	pool := NewPool()
	src := []byte("hello kernel")
	refs := pool.Copy(src)
	src[0] = 'X'
	if got := string(refs[0].Bytes()); got != "hello kernel" {
		t.Fatalf("copy aliased source: %q", got)
	}
	ReleaseAll(refs)
}

func TestGiftAliasesAndAvoidsCopy(t *testing.T) {
	src := make([]byte, 2*PageSize+100)
	refs := Gift(src)
	if len(refs) != 1 {
		t.Fatalf("gift refs = %d, want 1: a contiguous run is one extent", len(refs))
	}
	if got := TotalLen(refs); got != len(src) {
		t.Fatalf("TotalLen = %d, want %d", got, len(src))
	}
	if !refs[0].Gifted() {
		t.Fatal("gift produced a non-gifted ref")
	}
	src[0], src[len(src)-1] = 0xAB, 0xCD
	if b := refs[0].Bytes(); b[0] != 0xAB || b[len(b)-1] != 0xCD {
		t.Fatal("gifted ref does not alias source (a copy happened)")
	}
	// Two runs appended to one slice stay two extents, one header each.
	refs = AppendGift(refs, src[:PageSize+1])
	if len(refs) != 2 || refs[1].Len() != PageSize+1 || refs[1].p == refs[0].p {
		t.Fatalf("second gift = %d refs, want a second extent of %d bytes", len(refs), PageSize+1)
	}
	ReleaseAll(refs)
	if n := refs[0].p.refs.Load() + refs[1].p.refs.Load(); n != 0 {
		t.Fatalf("extent refcounts after release = %d, want 0", n)
	}
}

func TestGiftEmpty(t *testing.T) {
	if refs := Gift(nil); refs != nil {
		t.Fatalf("Gift(nil) = %v, want nil", refs)
	}
}

func TestRetainReleaseRefcount(t *testing.T) {
	pool := NewPool()
	refs := pool.Copy([]byte("abc"))
	r := refs[0]
	r2 := r.Retain()
	r.Release()
	if pool.Resident() == 0 {
		t.Fatal("page freed while a retained ref is live")
	}
	if got := string(r2.Bytes()); got != "abc" {
		t.Fatalf("retained ref bytes = %q", got)
	}
	r2.Release()
	if pool.Resident() != 0 {
		t.Fatalf("resident = %d after final release", pool.Resident())
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	pool := NewPool()
	refs := pool.Copy([]byte("x"))
	refs[0].Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	refs[0].Release()
}

func TestSlice(t *testing.T) {
	pool := NewPool()
	refs := pool.Copy([]byte("0123456789"))
	r := refs[0]
	mid := r.Slice(2, 7)
	if got := string(mid.Bytes()); got != "23456" {
		t.Fatalf("slice bytes = %q", got)
	}
	r.Release()
	if got := string(mid.Bytes()); got != "23456" {
		t.Fatalf("slice bytes after parent release = %q", got)
	}
	mid.Release()
	if pool.Resident() != 0 {
		t.Fatalf("resident = %d", pool.Resident())
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	pool := NewPool()
	refs := pool.Copy([]byte("abc"))
	defer refs[0].Release()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slice did not panic")
		}
	}()
	refs[0].Slice(1, 99)
}

func TestPoolReusesPages(t *testing.T) {
	pool := NewPool()
	refs := pool.Copy(make([]byte, PageSize))
	ReleaseAll(refs)
	refs2 := pool.Copy(make([]byte, PageSize))
	defer ReleaseAll(refs2)
	if pool.PeakResident() != PageSize {
		t.Fatalf("peak = %d, want one page", pool.PeakResident())
	}
}

func TestPeakResident(t *testing.T) {
	pool := NewPool()
	a := pool.Copy(make([]byte, 4*PageSize))
	b := pool.Copy(make([]byte, 2*PageSize))
	ReleaseAll(a)
	ReleaseAll(b)
	if got, want := pool.PeakResident(), int64(6*PageSize); got != want {
		t.Fatalf("peak = %d, want %d", got, want)
	}
	if pool.Resident() != 0 {
		t.Fatalf("resident = %d", pool.Resident())
	}
}

// Property: for any payload, Copy followed by concatenation of ref bytes is
// the identity, and releasing returns the pool to zero residency.
func TestCopyIdentityProperty(t *testing.T) {
	pool := NewPool()
	f := func(data []byte) bool {
		refs := pool.Copy(data)
		var back []byte
		for _, r := range refs {
			back = append(back, r.Bytes()...)
		}
		ok := bytes.Equal(back, data)
		ReleaseAll(refs)
		return ok && pool.Resident() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// freeBytes is the memory the pool's free lists hold, by walking them.
func (pl *Pool) freeBytes() (n int) {
	for i := range pl.shards {
		sh := &pl.shards[i]
		sh.mu.Lock()
		for _, free := range sh.free {
			for _, p := range free {
				n += len(p.data)
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Property: a copied run of any length takes one slab per full SlabSize and
// pages for the tail — so residency is page-granular exactly as it was with
// one size class (a 1-byte run pins a page, not a slab) — the references
// concatenate to the input, and once released every header is at refcount
// zero, nothing is resident and the free cache stays within its bound even
// after a burst far larger than it.
func TestTwoClassConservationProperty(t *testing.T) {
	pool := NewPool()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var held [][]Ref
		var want int64
		for i := 0; i < 1+rng.Intn(6); i++ {
			n := 1 + rng.Intn(PageSize)
			switch rng.Intn(3) {
			case 1:
				n = rng.Intn(4 * SlabSize)
			case 2:
				n = rng.Intn(6 << 20) // now and then outsize the free cache
			}
			src := make([]byte, n)
			rng.Read(src)
			refs := pool.Copy(src)
			slabs, pages := 0, 0
			var back []byte
			for _, r := range refs {
				switch len(r.p.data) {
				case SlabSize:
					slabs++
				case PageSize:
					pages++
				default:
					return false
				}
				back = append(back, r.Bytes()...)
			}
			rem := n % SlabSize
			if slabs != n/SlabSize || pages != (rem+PageSize-1)/PageSize || !bytes.Equal(back, src) {
				return false
			}
			want += int64((n + PageSize - 1) / PageSize * PageSize)
			held = append(held, refs)
		}
		if pool.Resident() != want {
			return false
		}
		rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
		for _, refs := range held {
			ReleaseAll(refs)
			for _, r := range refs {
				if r.p.refs.Load() != 0 {
					return false
				}
			}
		}
		return pool.Resident() == 0 && pool.freeBytes() <= maxFreeBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if maxFreeBytes != 4<<20 {
		t.Fatalf("free cache bound = %d, want 4 MiB", maxFreeBytes)
	}
}

// The two classes share one free-cache budget, so a staged payload the size
// of the whole cache recycles entirely (as slabs) once every shard has been a
// run's home.
func TestPoolCacheSizedRunRecycles(t *testing.T) {
	pool := NewPool()
	payload := make([]byte, maxFreeBytes)
	seen := map[*page]bool{}
	for round := 0; round <= len(pool.shards); round++ {
		refs := pool.Copy(payload)
		clear(seen)
		for _, r := range refs {
			seen[r.p] = true
		}
		ReleaseAll(refs)
	}
	if got := pool.freeBytes(); got != maxFreeBytes {
		t.Fatalf("free cache holds %d bytes after cache-sized runs, want all %d", got, maxFreeBytes)
	}
	refs := pool.Copy(payload)
	defer ReleaseAll(refs)
	for _, r := range refs {
		if !seen[r.p] {
			t.Fatal("a cache-sized run allocated a fresh block with the cache warm")
		}
	}
}

func TestRingFIFO(t *testing.T) {
	pool := NewPool()
	ring := NewRing(0) // default capacity
	want := []byte("the quick brown fox jumps over the lazy dog")
	if err := ring.Push(pool.Copy(want)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	n, err := ring.ReadInto(got)
	if err != nil || n != len(want) {
		t.Fatalf("ReadInto = (%d, %v)", n, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q", got)
	}
}

func TestRingPopSplitsRefs(t *testing.T) {
	pool := NewPool()
	ring := NewRing(0)
	if err := ring.Push(pool.Copy([]byte("abcdefgh"))); err != nil {
		t.Fatal(err)
	}
	first, err := ring.Pop(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := TotalLen(first); got != 3 {
		t.Fatalf("first pop = %d bytes", got)
	}
	rest, err := ring.Pop(100)
	if err != nil {
		t.Fatal(err)
	}
	var back []byte
	for _, r := range append(first, rest...) {
		back = append(back, r.Bytes()...)
	}
	if string(back) != "abcdefgh" {
		t.Fatalf("reassembled %q", back)
	}
	ReleaseAll(first)
	ReleaseAll(rest)
	if pool.Resident() != 0 {
		t.Fatalf("resident = %d", pool.Resident())
	}
}

func TestRingBlockingHandoff(t *testing.T) {
	pool := NewPool()
	ring := NewRing(2 * PageSize) // small: writer must block
	payload := make([]byte, 64*PageSize)
	rand.New(rand.NewSource(1)).Read(payload)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ring.Push(pool.Copy(payload)); err != nil {
			t.Errorf("push: %v", err)
		}
		ring.Close()
	}()

	var got []byte
	buf := make([]byte, 1000)
	for {
		n, err := ring.ReadInto(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	wg.Wait()
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted through blocking ring")
	}
}

func TestRingCloseUnblocksWriter(t *testing.T) {
	pool := NewPool()
	ring := NewRing(PageSize)
	done := make(chan error, 1)
	go func() {
		done <- ring.Push(pool.Copy(make([]byte, 8*PageSize)))
	}()
	ring.Close()
	if err := <-done; err != ErrClosedRing {
		t.Fatalf("push after close = %v, want ErrClosedRing", err)
	}
}

func TestRingEOFAfterDrain(t *testing.T) {
	pool := NewPool()
	ring := NewRing(0)
	if err := ring.Push(pool.Copy([]byte("xy"))); err != nil {
		t.Fatal(err)
	}
	ring.Close()
	buf := make([]byte, 10)
	n, err := ring.ReadInto(buf)
	if n != 2 || err != nil {
		t.Fatalf("first read = (%d, %v)", n, err)
	}
	if _, err := ring.ReadInto(buf); err != io.EOF {
		t.Fatalf("second read err = %v, want io.EOF", err)
	}
}

// Property: bytes flow through a ring unchanged and in order regardless of
// how the payload is cut into pool slabs, pool pages and gifted extents on the
// way in and how PopAppend, Clone and ReadInto split them on the way out — at
// offsets that are no page multiple — and once everything is released every
// pool block is home and every extent's refcount is zero.
func TestRingConservationProperty(t *testing.T) {
	pool := NewPool()
	f := func(data []byte, chunk uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// quick's slices are short: stretch the payload over a few slabs
		// with a ragged tail so extents straddle page boundaries.
		payload := make([]byte, 3*SlabSize+3*PageSize+1+13*int(chunk))
		rng.Read(payload)
		copy(payload, data)

		ring := NewRing(1 << 30)
		var extents, blocks []*page
		for off := 0; off < len(payload); {
			// Mostly page-scale pieces, now and then one long enough to
			// take a slab or two plus tail pages.
			n := 1 + rng.Intn(2*PageSize+PageSize/2)
			if rng.Intn(4) == 0 {
				n = SlabSize + rng.Intn(SlabSize+PageSize)
			}
			n = min(n, len(payload)-off)
			var refs []Ref
			if rng.Intn(3) == 0 {
				refs = pool.Copy(payload[off : off+n])
				for _, r := range refs {
					blocks = append(blocks, r.p)
				}
			} else {
				refs = Gift(payload[off : off+n])
				extents = append(extents, refs[0].p)
			}
			if err := ring.Push(refs); err != nil {
				return false
			}
			off += n
		}
		ring.Close()

		step := int(chunk)%1000 + 1 + rng.Intn(2)*SlabSize/2
		var back []byte
		buf := make([]byte, step)
		for {
			var err error
			switch rng.Intn(3) {
			case 0:
				var n int
				n, err = ring.ReadInto(buf)
				back = append(back, buf[:n]...)
			case 1:
				var refs []Ref
				refs, err = ring.PopAppend(nil, step)
				for _, r := range refs {
					back = append(back, r.Bytes()...)
				}
				ReleaseAll(refs)
			case 2:
				// tee: the clone reads ahead without consuming.
				var refs []Ref
				refs, err = ring.Clone(nil, step)
				ahead := payload[len(back):]
				for _, r := range refs {
					if !bytes.HasPrefix(ahead, r.Bytes()) {
						return false
					}
					ahead = ahead[r.Len():]
				}
				ReleaseAll(refs)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
		}
		for _, p := range append(extents, blocks...) {
			if p.refs.Load() != 0 {
				return false
			}
		}
		return bytes.Equal(back, payload) && pool.Resident() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// An extent larger than the ring blocks its Push, goes through as whole-page
// slices while a concurrent Pop consumes it, and never overfills the ring by
// a full page.
func TestRingPushExtentBackpressure(t *testing.T) {
	const capacity = 4 * PageSize
	ring := NewRing(capacity)
	payload := make([]byte, 64*PageSize+100)
	rand.New(rand.NewSource(2)).Read(payload)
	refs := Gift(payload)
	extent := refs[0].p

	done := make(chan error, 1)
	go func() {
		err := ring.Push(refs)
		ring.Close()
		done <- err
	}()
	for ring.Len() < capacity {
		runtime.Gosched()
	}
	select {
	case err := <-done:
		t.Fatalf("Push of a %d-byte extent returned (%v) with nothing consumed from a %d-byte ring", len(payload), err, capacity)
	default:
	}

	var got []byte
	for {
		if n := ring.Len(); n > capacity+PageSize-1 {
			t.Fatalf("ring holds %d bytes, capacity %d", n, capacity)
		}
		popped, err := ring.Pop(3*PageSize + 7)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range popped {
			got = append(got, r.Bytes()...)
		}
		ReleaseAll(popped)
	}
	if err := <-done; err != nil {
		t.Fatalf("push: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted through the sliced extent")
	}
	if n := extent.refs.Load(); n != 0 {
		t.Fatalf("extent refcount = %d after all slices released, want 0", n)
	}
}

// Closing the ring under a Push blocked halfway through an extent releases
// the unpushed remainder exactly once: what is left on the page is the count
// of the slices already queued, and draining those takes it to zero.
func TestRingCloseReleasesHalfPushedExtent(t *testing.T) {
	const capacity = 2 * PageSize
	ring := NewRing(capacity)
	refs := Gift(make([]byte, 8*PageSize+7))
	extent := refs[0].p

	done := make(chan error, 1)
	go func() { done <- ring.Push(refs) }()
	for ring.Len() < capacity {
		runtime.Gosched()
	}
	ring.Close()
	if err := <-done; err != ErrClosedRing {
		t.Fatalf("push after close = %v, want ErrClosedRing", err)
	}
	if n := extent.refs.Load(); n != 1 {
		t.Fatalf("extent refcount = %d with one %d-byte slice queued, want 1", n, ring.Len())
	}
	ring.Drain()
	if n := extent.refs.Load(); n != 0 {
		t.Fatalf("extent refcount = %d after drain, want 0", n)
	}
}

func TestGiftThroughRingZeroResidency(t *testing.T) {
	pool := NewPool()
	ring := NewRing(1 << 30)
	payload := make([]byte, 10*PageSize)
	if err := ring.Push(Gift(payload)); err != nil {
		t.Fatal(err)
	}
	if pool.Resident() != 0 {
		t.Fatalf("gifted pages consumed pool residency: %d", pool.Resident())
	}
	refs, err := ring.Pop(len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if TotalLen(refs) != len(payload) {
		t.Fatalf("moved %d bytes", TotalLen(refs))
	}
	ReleaseAll(refs)
}

func BenchmarkPoolCopy64K(b *testing.B) {
	pool := NewPool()
	buf := make([]byte, 64*1024)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		refs := pool.Copy(buf)
		ReleaseAll(refs)
	}
}

func BenchmarkGift64K(b *testing.B) {
	buf := make([]byte, 64*1024)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		refs := Gift(buf)
		ReleaseAll(refs)
	}
}
