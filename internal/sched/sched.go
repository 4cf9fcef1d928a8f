// Package sched provides the bounded worker pool behind the platform's
// Plan/Submit plane: Platform.Submit's node bodies and a fan-out's
// per-target deliveries submit transfer closures here and a fixed set of
// workers drains them.
//
// The pool deliberately has no knowledge of transfers. Per-VM serialization
// is the job of the core layer's shim locks; the pool only bounds how many
// transfer attempts are in flight at once, which keeps a load spike from
// spawning an unbounded number of goroutines all contending for the same
// VM locks.
//
// # One run queue
//
// Every worker drains one buffered channel. Admission is a CAS on a packed
// state word (task count plus a closed bit), so Submit takes no lock; the
// send then either lands in the buffer or goes straight to a worker parked
// on the channel, and blocks — for backpressure — only while the buffer is
// full. A task queued behind a long-running one is taken by whichever
// worker frees up first.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("sched: pool closed")

// state packs the pool's lifecycle into one atomic word so Submit needs no
// mutex: bit 0 is the closed flag, the remaining bits count accepted tasks
// that have not yet finished (queued + running + reservations held by
// submitters blocked on a full queue). Packing the two together is what
// makes the closed-check-then-reserve step a single CAS — the
// WaitGroup-plus-flag split this replaces could not be made lock-free
// because WaitGroup.Add from zero is not allowed to race WaitGroup.Wait.
const (
	closedBit  = 1
	countOne   = 2 // one task in the count field (bit 0 is the flag)
	countShift = 1
)

// Pool is a bounded worker pool with a bounded submission queue. Submit
// blocks while the queue is full, giving callers natural backpressure
// instead of unbounded buffering.
type Pool struct {
	tasks chan func() // capacity queue: the backpressure bound
	quit  chan struct{}

	workers int
	wg      sync.WaitGroup // worker goroutines

	state atomic.Uint64 // count<<1 | closedBit

	waitMu   sync.Mutex
	waitCond sync.Cond
	drained  chan struct{} // closed when the count hits zero after Close
	quitOnce sync.Once

	submitted atomic.Int64
	completed atomic.Int64
}

// New creates a pool. workers <= 0 means GOMAXPROCS; queue <= 0 means
// 2×workers.
func New(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue <= 0 {
		queue = 2 * workers
	}
	p := &Pool{
		tasks:   make(chan func(), queue),
		quit:    make(chan struct{}),
		workers: workers,
		drained: make(chan struct{}),
	}
	p.waitCond.L = &p.waitMu
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case fn := <-p.tasks:
			fn()
			p.completed.Add(1)
			p.release()
		case <-p.quit:
			return
		}
	}
}

// reserve admits one task: a CAS that fails only when the closed bit is
// set. This is the whole closed-flag check — no mutex on the submit path.
func (p *Pool) reserve() error {
	for {
		s := p.state.Load()
		if s&closedBit != 0 {
			return ErrClosed
		}
		if p.state.CompareAndSwap(s, s+countOne) {
			p.submitted.Add(1)
			return nil
		}
	}
}

// release retires one reservation (a finished task or an undone admission)
// and performs the count-to-zero bookkeeping: waking Wait callers and, once
// Close has begun, releasing the drain.
func (p *Pool) release() {
	s := p.state.Add(^uint64(countOne - 1)) // state -= countOne
	if s>>countShift == 0 {
		p.waitMu.Lock()
		p.waitCond.Broadcast()
		p.waitMu.Unlock()
		if s&closedBit != 0 {
			// The count can only fall once the closed bit is set (reserve
			// rejects new tasks), so exactly one release lands here.
			close(p.drained)
		}
	}
}

// Submit enqueues a task, blocking while the queue is full. It returns
// ErrClosed once Close has begun; an accepted task is guaranteed to run.
func (p *Pool) Submit(fn func()) error {
	return p.SubmitCtx(nil, fn)
}

// SubmitCtx is Submit with cancellable admission: while the queue is full
// it waits for a slot only as long as ctx lives, returning ctx's error when
// cancellation wins the race. An accepted task is guaranteed to run — once
// SubmitCtx returns nil the task is the pool's responsibility and the
// caller's ctx no longer influences whether it executes (tasks that must
// observe cancellation watch the ctx themselves). A nil ctx never cancels.
func (p *Pool) SubmitCtx(ctx context.Context, fn func()) error {
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
		done = ctx.Done()
	}
	if err := p.reserve(); err != nil {
		return err
	}
	select {
	case p.tasks <- fn:
		return nil
	case <-done:
		// Undo the reservation: the task was never queued, so the counters
		// must not show a submission that will never complete.
		p.submitted.Add(-1)
		p.release()
		return ctx.Err()
	}
}

// Wait blocks until every task submitted so far has finished.
func (p *Pool) Wait() {
	if p.state.Load()>>countShift == 0 {
		return
	}
	p.waitMu.Lock()
	for p.state.Load()>>countShift != 0 {
		p.waitCond.Wait()
	}
	p.waitMu.Unlock()
}

// Close rejects further submissions, drains every accepted task, and stops
// the workers. It is idempotent.
func (p *Pool) Close() {
	for {
		s := p.state.Load()
		if s&closedBit != 0 {
			break
		}
		if p.state.CompareAndSwap(s, s|closedBit) {
			if s>>countShift == 0 {
				// No outstanding reservations existed at the transition,
				// so no release can fire the drain — the closer does.
				close(p.drained)
			}
			break
		}
	}
	// Workers keep running until every accepted task is done, so queued
	// sends cannot strand: quit only fires afterwards.
	<-p.drained
	p.quitOnce.Do(func() { close(p.quit) })
	p.wg.Wait()
}

// Stats is a point-in-time view of pool activity.
type Stats struct {
	Workers   int
	QueueCap  int
	Submitted int64
	Completed int64
}

// Stats reports pool counters (Submitted - Completed is the in-flight count).
func (p *Pool) Stats() Stats {
	return Stats{
		Workers:   p.workers,
		QueueCap:  cap(p.tasks),
		Submitted: p.submitted.Load(),
		Completed: p.completed.Load(),
	}
}
