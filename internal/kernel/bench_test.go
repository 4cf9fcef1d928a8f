package kernel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/pagebuf"
)

// The copy path and its floors, on one screen (`make bench-kernel`, -cpu 1,2):
// 4 MiB moved source → bounce buffer → destination, the two copies of Write +
// ReadFull with everything else taken away.
const benchPayload = 4 << 20

// benchBuffers returns a source that has been written — untouched memory
// would read as one shared zero page, out of L1 — and a destination.
func benchBuffers() (src, dst []byte) {
	src, dst = make([]byte, benchPayload), make([]byte, benchPayload)
	for i := range src {
		src[i] = byte(i)
	}
	return src, dst
}

// BenchmarkBounceFloor is what the hardware allows. one-core: both copies on
// one thread, through a bounce buffer of its own that stays cache-hot.
// two-core-own-slab: two threads, each with its own buffer, on alternate
// segments — the shape the relay takes once both ends have met. Both bounce a
// segment the way the relay does, bouncePiece at a time. two-core-handoff:
// one thread fills slabs and the other drains them through a four-slab ring
// with an ideal (spinning) hand-off — the conveyor the send window used to
// be, every slab crossing cores.
func BenchmarkBounceFloor(b *testing.B) {
	src, dst := benchBuffers()
	const seg, nseg = pagebuf.SlabSize, benchPayload / pagebuf.SlabSize
	// stripe moves every stride-th segment from the first-th on through a
	// buffer of the caller's own, b.N times over.
	stripe := func(b *testing.B, first, stride int) {
		buf := make([]byte, bouncePiece)
		for i := 0; i < b.N; i++ {
			for s := first; s < nseg; s += stride {
				for at := s * seg; at < (s+1)*seg; at += bouncePiece {
					copy(buf, src[at:at+bouncePiece])
					copy(dst[at:], buf)
				}
			}
		}
	}
	b.Run("one-core", func(b *testing.B) {
		b.SetBytes(benchPayload)
		stripe(b, 0, 1)
	})
	b.Run("two-core-own-slab", func(b *testing.B) {
		b.SetBytes(benchPayload)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			stripe(b, 1, 2)
		}()
		stripe(b, 0, 2)
		wg.Wait()
	})
	b.Run("two-core-handoff", func(b *testing.B) {
		b.SetBytes(benchPayload)
		var ring [4][]byte
		for i := range ring {
			ring[i] = make([]byte, seg)
		}
		var filled, drained atomic.Int64 // segments, counted over the whole run
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int64(0); n < int64(b.N)*nseg; n++ {
				for filled.Load() == n {
					runtime.Gosched()
				}
				copy(dst[n%nseg*seg:], ring[n%4])
				drained.Store(n + 1)
			}
		}()
		for n := int64(0); n < int64(b.N)*nseg; n++ {
			for n-drained.Load() == int64(len(ring)) {
				runtime.Gosched()
			}
			copy(ring[n%4], src[n%nseg*seg:(n%nseg+1)*seg])
			filled.Store(n + 1)
		}
		wg.Wait()
	})
}

// BenchmarkCopyPath4M is the layer those floors bound: Write on one goroutine,
// ReadFull on another, over the sized socketpair the kernel channel uses.
func BenchmarkCopyPath4M(b *testing.B) {
	k := New("n")
	pa, pb := k.NewProc("a", &metrics.Account{}), k.NewProc("b", &metrics.Account{})
	fa, fb, err := SocketPairSized(pa, pb, 4*pagebuf.SlabSize)
	if err != nil {
		b.Fatal(err)
	}
	defer pa.CloseAll()
	defer pb.CloseAll()
	src, dst := benchBuffers()
	b.SetBytes(benchPayload)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < b.N; i++ {
			if _, err := pb.ReadFull(fb, dst); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	for i := 0; i < b.N; i++ {
		if _, err := pa.Write(fa, src); err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
}
