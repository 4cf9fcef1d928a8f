package netsim

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestTransferTimeBasic(t *testing.T) {
	// 100 Mbps, 1 ms RTT: 100 MB should take 8 s wire time + RTT.
	l := NewLink(100*Mbps, time.Millisecond)
	got := l.TransferTime(100_000_000, 1)
	want := 8*time.Second + time.Millisecond
	if diff := got - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("transfer time = %v, want ~%v", got, want)
	}
}

func TestTransferTimeFairSharing(t *testing.T) {
	l := NewLink(100*Mbps, 0)
	one := l.TransferTime(1_000_000, 1)
	ten := l.TransferTime(1_000_000, 10)
	ratio := float64(ten) / float64(one)
	if ratio < 9.99 || ratio > 10.01 {
		t.Fatalf("10-flow slowdown = %v, want 10x", ratio)
	}
}

func TestTransferTimeDegenerateInputs(t *testing.T) {
	l := NewLink(100*Mbps, time.Millisecond)
	if got := l.TransferTime(0, 0); got != time.Millisecond {
		t.Fatalf("zero bytes = %v, want RTT only", got)
	}
	if got := l.TransferTime(-5, 1); got != time.Millisecond {
		t.Fatalf("negative bytes = %v, want RTT only", got)
	}
}

// TestTransferTimeConcurrent: a Link is shared by every transfer crossing
// it, so concurrent callers (run under -race) must all see the same model.
func TestTransferTimeConcurrent(t *testing.T) {
	l := NewLink(100*Mbps, time.Millisecond)
	want := l.TransferTime(1<<20, 4)
	var wg sync.WaitGroup
	got := make([]time.Duration, 64)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = l.TransferTime(1<<20, 4)
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d != want {
			t.Fatalf("goroutine %d: transfer time = %v, want %v", i, d, want)
		}
	}
}

func TestTransferTimeMonotoneProperty(t *testing.T) {
	l := NewLink(100*Mbps, time.Millisecond)
	f := func(a, b uint32) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return l.TransferTime(lo, 1) <= l.TransferTime(hi, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewLinkRejectsZeroBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero bandwidth")
		}
	}()
	NewLink(0, 0)
}

func TestBandwidthString(t *testing.T) {
	cases := map[Bandwidth]string{
		100 * Mbps: "100Mbps",
		2 * Gbps:   "2Gbps",
		64 * Kbps:  "64Kbps",
		500:        "500bps",
	}
	for bw, want := range cases {
		if got := bw.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(bw), got, want)
		}
	}
}

// TestDefaultLoopback pins the loopback model the in-process baselines
// charge a same-node transfer.
func TestDefaultLoopback(t *testing.T) {
	l := DefaultLoopback()
	if l.Bandwidth() != 20*Gbps || l.RTT() != 50*time.Microsecond {
		t.Fatalf("loopback = %v/%v, want 20Gbps/50µs", l.Bandwidth(), l.RTT())
	}
}
