package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStealKeepsShardsLive: a task striped onto a shard whose owner is busy
// for a long time must still run promptly, because idle workers steal. This
// is the liveness property the single queue gave for free and sharding must
// not lose.
func TestStealKeepsShardsLive(t *testing.T) {
	p := New(4, 8)
	defer p.Close()

	// Tie up every worker, then release all but one: the stuck worker's
	// shard can still receive striped submissions, and the free workers
	// must drain them.
	stuck := make(chan struct{})
	free := make(chan struct{})
	for i := 0; i < 4; i++ {
		i := i
		if err := p.Submit(func() {
			if i == 0 {
				<-stuck
			} else {
				<-free
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(free)

	var ran atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 64; i++ {
			if err := p.Submit(func() { ran.Add(1) }); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("submissions stalled with one stuck worker")
	}
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load() != 64 {
		if time.Now().After(deadline) {
			t.Fatalf("ran %d of 64 tasks with one stuck worker", ran.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(stuck)
}

// TestConcurrentSubmitCloseRace: submitters racing Close either get
// ErrClosed or their task runs — never a lost task, never a panic. This is
// the race the packed state word exists for: the WaitGroup it replaced
// forbids Add-from-zero concurrent with Wait.
func TestConcurrentSubmitCloseRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		p := New(4, 4)
		var accepted, ran atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					err := p.Submit(func() { ran.Add(1) })
					if err == nil {
						accepted.Add(1)
					} else if !errors.Is(err, ErrClosed) {
						t.Errorf("submit: %v", err)
					}
				}
			}()
		}
		close(start)
		p.Close()
		wg.Wait()
		// Stragglers admitted after Close returned (Close won the race
		// mid-loop) have still run by their own Close; a second Close is
		// a drain barrier.
		p.Close()
		if accepted.Load() != ran.Load() {
			t.Fatalf("round %d: accepted %d tasks but ran %d", round, accepted.Load(), ran.Load())
		}
	}
}

// TestWaitBlocksUntilDrained: Wait must block while gated tasks are
// running or queued and return once they drain. Four tasks exactly fill
// two workers plus the two queue slots — a fifth would block Submit
// itself, which is the backpressure contract, not what this test probes.
func TestWaitBlocksUntilDrained(t *testing.T) {
	p := New(2, 2)
	defer p.Close()
	var ran atomic.Int64
	gate := make(chan struct{})
	for i := 0; i < 4; i++ {
		if err := p.Submit(func() { <-gate; ran.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	waited := make(chan struct{})
	go func() {
		p.Wait()
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("Wait returned with tasks still gated")
	case <-time.After(20 * time.Millisecond):
	}
	close(gate)
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait never returned after tasks drained")
	}
	if got := ran.Load(); got != 4 {
		t.Fatalf("ran %d of 4", got)
	}
}
