package kernel

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// BenchmarkSecondCoreJoin is what it costs the relay's second thread to
// join: a goroutine readied by a running one after the other P has been idle
// for joinGap, until both run on their own P. runnext-steal: the waker keeps
// running, so the readied goroutine, queued next in line on the waker's P,
// must be stolen by the idle one — which the Go runtime does only after a
// short sleep. run-queue: the waker yields at once (the copy path's two
// hand-offs), the readied goroutine runs on the waker's P and the waker is
// taken from the run queue by the idle P. Both report the median and the
// 90th percentile in µs; compare them within one run.
func BenchmarkSecondCoreJoin(b *testing.B) {
	const joinGap = 20 * time.Microsecond
	for _, yield := range []bool{false, true} {
		name := "runnext-steal"
		if yield {
			name = "run-queue"
		}
		b.Run(name, func(b *testing.B) {
			// -cpu sets GOMAXPROCS per sub-benchmark, so this is where to look.
			if runtime.GOMAXPROCS(0) < 2 {
				b.Skip("needs two Ps")
			}
			wake := make(chan struct{})
			var started, released atomic.Int64 // iterations
			go func() {
				for i := int64(1); ; i++ {
					if _, ok := <-wake; !ok {
						return
					}
					started.Store(i)
					for released.Load() < i { // hold this P until both run
					}
				}
			}()
			joins := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range joins {
				// By the end of the gap the sleeper is parked in the receive
				// and the other P has gone idle.
				for t := time.Now(); time.Since(t) < joinGap; {
				}
				t0 := time.Now()
				wake <- struct{}{}
				if yield {
					runtime.Gosched()
				}
				for started.Load() <= int64(i) {
				}
				joins[i] = time.Since(t0)
				released.Store(int64(i) + 1)
			}
			b.StopTimer()
			close(wake)
			slices.Sort(joins)
			us := func(q float64) float64 { return float64(joins[int(q*float64(len(joins)-1))]) / 1e3 }
			b.ReportMetric(us(0.5), "p50-us")
			b.ReportMetric(us(0.9), "p90-us")
			b.ReportMetric(0, "ns/op")
		})
	}
}
