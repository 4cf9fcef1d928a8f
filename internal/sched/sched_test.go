package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEverySubmittedTask(t *testing.T) {
	p := New(4, 2)
	var ran atomic.Int64
	const tasks = 100
	for i := 0; i < tasks; i++ {
		if err := p.Submit(func() { ran.Add(1) }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	p.Wait()
	if got := ran.Load(); got != tasks {
		t.Fatalf("ran %d of %d tasks", got, tasks)
	}
	st := p.Stats()
	if st.Submitted != tasks || st.Completed != tasks {
		t.Fatalf("stats = %+v, want %d submitted and completed", st, tasks)
	}
	p.Close()
}

func TestPoolCloseDrainsQueueAndRejectsLateSubmits(t *testing.T) {
	p := New(2, 4)
	var ran atomic.Int64
	for i := 0; i < 16; i++ {
		if err := p.Submit(func() { ran.Add(1) }); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	p.Close()
	if got := ran.Load(); got != 16 {
		t.Fatalf("close drained %d of 16 tasks", got)
	}
	if err := p.Submit(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	p.Close() // idempotent
}

func TestSubmitBlocksOnFullQueueThenDrains(t *testing.T) {
	p := New(1, 1)
	gate := make(chan struct{})
	var ran atomic.Int64
	// First task occupies the single worker until the gate opens; the
	// rest must queue (blocking Submit on the 1-slot queue) and still all
	// run by Close.
	if err := p.Submit(func() { <-gate; ran.Add(1) }); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			if err := p.Submit(func() { ran.Add(1) }); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
	}()
	close(gate)
	<-done
	p.Close()
	if got := ran.Load(); got != 5 {
		t.Fatalf("ran %d of 5 tasks", got)
	}
}

// TestSubmitCtxCancelledAdmission: a cancelled context aborts a submission
// blocked on a full queue, without running the task and without corrupting
// the pool's counters; a live context admits normally.
func TestSubmitCtxCancelledAdmission(t *testing.T) {
	p := New(1, 1)
	defer p.Close()

	// Occupy the single worker and fill the single queue slot.
	block := make(chan struct{})
	if err := p.Submit(func() { <-block }); err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitCtx(context.Background(), func() {}); err != nil {
		t.Fatal(err)
	}

	// The queue is full: submitters blocked on it all return ctx.Err() when
	// it is cancelled, never run their tasks, and the admissions they undo
	// leave Submitted == Completed once the pool drains.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var leaked atomic.Bool
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.SubmitCtx(ctx, func() { leaked.Store(true) }); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled SubmitCtx = %v, want context.Canceled", err)
			}
		}()
	}
	// Every submitter has reserved its admission (Submitted counts it) and
	// is blocked on the full queue before the cancel.
	for p.Stats().Submitted != 10 {
		runtime.Gosched()
	}
	cancel()
	wg.Wait()
	close(block)
	p.Wait()
	if leaked.Load() {
		t.Fatal("cancelled submission ran its task")
	}
	if st := p.Stats(); st.Submitted != 2 || st.Completed != 2 {
		t.Fatalf("stats = %+v after cancelled admissions, want 2 submitted and completed", st)
	}

	// An already-cancelled context is rejected before reserving anything.
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if err := p.SubmitCtx(done, func() {}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled SubmitCtx = %v, want context.Canceled", err)
	}
}

// TestQueueCapIsQueue: the pool buffers exactly the queue it was asked for;
// nothing rounds it per worker.
func TestQueueCapIsQueue(t *testing.T) {
	for _, tc := range []struct{ workers, queue, want int }{
		{4, 6, 6},
		{3, 1, 1},
		{2, 0, 4}, // queue <= 0 means 2×workers
	} {
		p := New(tc.workers, tc.queue)
		st := p.Stats()
		p.Close()
		if st.Workers != tc.workers || st.QueueCap != tc.want {
			t.Errorf("New(%d, %d).Stats() = %+v, want Workers %d, QueueCap %d",
				tc.workers, tc.queue, st, tc.workers, tc.want)
		}
	}
}

// TestStuckWorkerDoesNotStallQueue: with one worker stuck on a long task,
// the queue behind it still drains through the other workers. A hang here
// is the test binary's timeout to report.
func TestStuckWorkerDoesNotStallQueue(t *testing.T) {
	p := New(4, 8)
	defer p.Close()

	// Tie up every worker, then release all but one.
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

	var ran sync.WaitGroup
	ran.Add(64)
	for i := 0; i < 64; i++ {
		if err := p.Submit(ran.Done); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	ran.Wait()
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
	<-waited // a Wait that never returns is the test binary's timeout to report
	if got := ran.Load(); got != 4 {
		t.Fatalf("ran %d of 4", got)
	}
}
