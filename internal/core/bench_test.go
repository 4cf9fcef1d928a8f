package core_test

import (
	"sync"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/core"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
)

// The network path's drain and its floors, on one screen (`make
// bench-drain`, -cpu 1,2): a warm cross-node transfer, whose one payload
// copy is the deposit into the target VM, beside the same bytes moved by a
// bare memmove on one core and on two.

// BenchmarkNetworkDrain is a warm NetworkTransfer between two nodes over the
// default hose: 1 MiB is four pieces of one chunk, 4 MiB one full chunk and
// 16 MiB four (xfer_network_16m's shape, without the public API around it).
func BenchmarkNetworkDrain(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"1M", 1 << 20}, {"4M", 4 << 20}, {"16M", 16 << 20}} {
		b.Run(size.name, func(b *testing.B) {
			fa := addFn(b, newShim(b, "s1", kernel.New("edge")), "a")
			fb := addFn(b, newShim(b, "s2", kernel.New("cloud")), "b")
			if _, err := fa.CallPacked(guest.ExportProduce, uint64(size.n)); err != nil {
				b.Fatal(err)
			}
			deliver := func() {
				ref, _, err := core.NetworkTransfer(fa, fb, core.NetworkOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if err := fb.Deallocate(ref.Ptr); err != nil {
					b.Fatal(err)
				}
			}
			deliver() // cold: establishes the channel, grows the target
			b.SetBytes(int64(size.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deliver()
			}
		})
	}
}

// BenchmarkDrainFloor is what the hardware allows for 16 MiB: one-core
// copies it on one goroutine, two-halves on two, one 8 MiB half each — the
// floor of two depositors.
func BenchmarkDrainFloor(b *testing.B) {
	const n = 16 << 20
	src, dst := make([]byte, n), make([]byte, n)
	for i := range src {
		src[i] = byte(i) // untouched memory reads as one shared zero page
	}
	b.Run("one-core", func(b *testing.B) {
		b.SetBytes(n)
		for i := 0; i < b.N; i++ {
			copy(dst, src)
		}
	})
	b.Run("two-halves", func(b *testing.B) {
		b.SetBytes(n)
		var wg sync.WaitGroup
		for i := 0; i < b.N; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				copy(dst[n/2:], src[n/2:])
			}()
			copy(dst[:n/2], src[:n/2])
			wg.Wait()
		}
	})
}
