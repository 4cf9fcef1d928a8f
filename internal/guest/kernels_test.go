package guest_test

import (
	"bytes"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/abi"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
)

// The produce and consume kernels walk their range in three loops: 64 bytes
// per main-loop iteration, then whole words, then single bytes. These
// oracles hold them to the Go references at every split of a length into
// those three parts, at unaligned starts, and on a range that ends on the
// last byte of linear memory, where a main loop that runs one iteration too
// many traps.

// checkProduce runs produce(n) and holds its bytes to ReferenceProduce(n),
// and consume over [off, n) of them to ReferenceChecksum. It rewinds the
// guest heap before it returns.
func checkProduce(tb testing.TB, view *abi.View, n, off int) {
	tb.Helper()
	ptr, m, err := view.CallPacked(guest.ExportProduce, uint64(n))
	if err != nil {
		tb.Fatalf("produce(%d): %v", n, err)
	}
	defer func() {
		if err := view.Deallocate(ptr); err != nil {
			tb.Fatal(err)
		}
	}()
	if int(m) != n {
		tb.Fatalf("produce(%d) length = %d", n, m)
	}
	got, err := view.Instance().Memory().View(ptr, m)
	if err != nil {
		tb.Fatal(err)
	}
	want := guest.ReferenceProduce(n)
	if !bytes.Equal(got, want) {
		tb.Fatalf("produce(%d) diverges from ReferenceProduce at byte %d", n, firstDiff(got, want))
	}
	checkConsume(tb, view, ptr+uint32(off), want[off:])
}

// checkConsume holds consume(ptr, len(data)) to ReferenceChecksum(data);
// data is what guest memory holds at ptr.
func checkConsume(tb testing.TB, view *abi.View, ptr uint32, data []byte) {
	tb.Helper()
	res, err := view.Instance().Call(guest.ExportConsume, uint64(ptr), uint64(len(data)))
	if err != nil {
		tb.Fatalf("consume(%d, %d): %v", ptr, len(data), err)
	}
	if want := guest.ReferenceChecksum(data); res[0] != want {
		tb.Fatalf("consume(%d, %d) = %#x, want %#x", ptr, len(data), res[0], want)
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// kernelSizes is the deterministic table: every length to 200, each side of
// every 64-byte boundary to 4 KiB, 64 KiB ± 1 and 1 MiB + 3.
func kernelSizes() []int {
	var sizes []int
	for n := 0; n <= 200; n++ {
		sizes = append(sizes, n)
	}
	for n := 256; n <= 4096; n += 64 {
		sizes = append(sizes, n-1, n, n+1)
	}
	return append(sizes, 64<<10-1, 64<<10, 64<<10+1, 1<<20+3)
}

// TestProduceMatchesReference runs produce over the table, and consume over
// each whole output.
func TestProduceMatchesReference(t *testing.T) {
	view := mappedView(t)
	for _, n := range kernelSizes() {
		checkProduce(t, view, n, 0)
	}
}

// TestConsumeMatchesReference runs consume over ranges that start off a
// word boundary.
func TestConsumeMatchesReference(t *testing.T) {
	view := mappedView(t)
	const n = 4096 + 200
	for off := 1; off < 8; off++ {
		for _, size := range []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 1000, 4096} {
			checkProduce(t, view, off+size, off)
		}
	}
	// One buffer, sub-ranges at every unaligned start within two main-loop
	// strides and every length across them.
	ptr, _, err := view.CallPacked(guest.ExportProduce, n)
	if err != nil {
		t.Fatal(err)
	}
	data := guest.ReferenceProduce(n)
	for off := 1; off < 136; off++ {
		if off%8 == 0 {
			continue
		}
		for size := 0; size <= 200 && off+size <= n; size += 7 {
			checkConsume(t, view, ptr+uint32(off), data[off:off+size])
		}
	}
}

func TestConsumeRangeEndingAtMemoryEnd(t *testing.T) {
	view := mappedView(t)
	mem := view.Instance().Memory()
	for _, n := range []int{1, 7, 8, 63, 64, 65, 191, 192, 4097} {
		data := guest.ReferenceProduce(n)
		ptr := uint32(mem.Size() - n)
		if err := mem.WriteAt(data, ptr); err != nil {
			t.Fatal(err)
		}
		checkConsume(t, view, ptr, data)
		// One byte further, the range runs past the end: consume must trap.
		if _, err := view.Instance().Call(guest.ExportConsume, uint64(ptr+1), uint64(n)); err == nil {
			t.Fatalf("consume of %d bytes running past the end of memory did not trap", n)
		}
	}
}

// FuzzGuestKernels holds produce(n) and consume over [off, n) of its output
// to the Go references; n is kept under 128 KiB so one input stays fast.
func FuzzGuestKernels(f *testing.F) {
	view := mappedView(f)
	f.Fuzz(func(t *testing.T, n, off uint32) {
		n %= 128 << 10
		off %= n + 1
		checkProduce(t, view, int(n), int(off))
	})
}
