// Package sched provides the bounded worker pool behind the platform's
// Plan/Submit plane: Platform.Submit's node bodies, a fan-out's per-target
// deliveries and the workload generator submit transfer closures here and a
// fixed set of workers drains them.
//
// The pool deliberately has no knowledge of transfers. Per-VM serialization
// is the job of the core layer's shim locks; the pool only bounds how many
// transfer attempts are in flight at once, which keeps a load spike from
// spawning an unbounded number of goroutines all contending for the same
// VM locks.
//
// # Sharded dispatch
//
// The pool is sharded: each worker owns a run queue, and Submit never takes
// a lock. Admission is a CAS on a packed state word (task count plus a
// closed bit), dispatch prefers a direct handoff to a parked worker, falls
// back to a striped non-blocking scan over the shard queues, and only
// blocks — for backpressure, exactly like the single-queue pool did — when
// every shard is full. Idle workers steal from other shards before parking,
// so a task enqueued behind a long-running task on one shard is drained by
// whichever worker frees up first, preserving the single-queue pool's
// liveness. The pre-shard single-mutex/single-channel design survives as
// SingleQueuePool, the ablation baseline for the hotpath experiment
// (BENCH_8).
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
// submitters blocked on full shards). Packing the two together is what
// makes the closed-check-then-reserve step a single CAS — the
// WaitGroup-plus-flag split this replaces could not be made lock-free
// because WaitGroup.Add from zero is not allowed to race WaitGroup.Wait.
const (
	closedBit  = 1
	countOne   = 2 // one task in the count field (bit 0 is the flag)
	countShift = 1
)

// Pool is a bounded worker pool with bounded per-worker submission queues.
// Submit blocks while every queue is full, giving callers natural
// backpressure instead of unbounded buffering.
type Pool struct {
	shards  []chan func() // one run queue per worker
	handoff chan func()   // unbuffered: direct rendezvous with a parked worker
	wake    chan struct{} // pokes parked workers to rescan the shards
	quit    chan struct{}

	workers  int
	queueCap int            // total capacity across shards
	wg       sync.WaitGroup // worker goroutines

	state   atomic.Uint64 // count<<1 | closedBit
	pending atomic.Int64  // tasks sitting in shard queues
	parked  atomic.Int64  // workers blocked in the park select
	cursor  atomic.Uint64 // striping cursor for dispatch

	waitMu   sync.Mutex
	waitCond sync.Cond
	drained  chan struct{} // closed when the count hits zero after Close
	quitOnce sync.Once

	submitted atomic.Int64
	completed atomic.Int64
}

// New creates a pool. workers <= 0 means GOMAXPROCS; queue <= 0 means
// 2×workers. The queue capacity is spread across per-worker shards, rounded
// up so each shard holds at least one task.
func New(workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue <= 0 {
		queue = 2 * workers
	}
	perShard := (queue + workers - 1) / workers
	p := &Pool{
		shards:   make([]chan func(), workers),
		handoff:  make(chan func()),
		wake:     make(chan struct{}, workers),
		quit:     make(chan struct{}),
		workers:  workers,
		queueCap: perShard * workers,
		drained:  make(chan struct{}),
	}
	p.waitCond.L = &p.waitMu
	for i := range p.shards {
		p.shards[i] = make(chan func(), perShard)
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(i)
	}
	return p
}

func (p *Pool) worker(w int) {
	defer p.wg.Done()
	for {
		// Fast path: the worker's own queue.
		select {
		case fn := <-p.shards[w]:
			p.pending.Add(-1)
			p.run(fn)
			continue
		default:
		}
		if fn, ok := p.steal(w); ok {
			p.run(fn)
			continue
		}
		// Park. The parked count must be visible before the final rescan:
		// a concurrent dispatch either enqueued early enough for the
		// rescan to find the task, or observes parked > 0 afterwards and
		// pokes wake. Both atomics are sequentially consistent, so the
		// store-buffer interleaving where each side misses the other
		// cannot happen.
		p.parked.Add(1)
		if fn, ok := p.steal(w); ok {
			p.parked.Add(-1)
			p.run(fn)
			continue
		}
		select {
		case fn := <-p.shards[w]:
			p.parked.Add(-1)
			p.pending.Add(-1)
			p.run(fn)
		case fn := <-p.handoff:
			p.parked.Add(-1)
			p.run(fn)
		case <-p.wake:
			p.parked.Add(-1)
		case <-p.quit:
			p.parked.Add(-1)
			return
		}
	}
}

// steal scans every shard once, the worker's own first, taking the first
// queued task it finds.
func (p *Pool) steal(w int) (func(), bool) {
	n := len(p.shards)
	for k := 0; k < n; k++ {
		select {
		case fn := <-p.shards[(w+k)%n]:
			p.pending.Add(-1)
			return fn, true
		default:
		}
	}
	return nil, false
}

func (p *Pool) run(fn func()) {
	fn()
	p.completed.Add(1)
	p.release()
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

// poke nudges one parked worker to rescan the shards; a no-op when the wake
// buffer is already primed or nobody is parked.
func (p *Pool) poke() {
	if p.parked.Load() > 0 {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// Submit enqueues a task, blocking while every shard queue is full. It
// returns ErrClosed once Close has begun; an accepted task is guaranteed to
// run.
func (p *Pool) Submit(fn func()) error {
	if err := p.reserve(); err != nil {
		return err
	}
	// Direct handoff: if a worker is parked, hand the task over without
	// touching a queue.
	if p.parked.Load() > 0 {
		select {
		case p.handoff <- fn:
			return nil
		default:
		}
	}
	p.pending.Add(1)
	i := int(p.cursor.Add(1) % uint64(len(p.shards)))
	for k := 0; k < len(p.shards); k++ {
		select {
		case p.shards[(i+k)%len(p.shards)] <- fn:
			p.poke()
			return nil
		default:
		}
	}
	// Every shard is full: block for backpressure. The handoff case keeps
	// a worker that frees up meanwhile able to take the task directly.
	select {
	case p.shards[i] <- fn:
		p.poke()
	case p.handoff <- fn:
		p.pending.Add(-1)
	}
	return nil
}

// SubmitCtx is Submit with cancellable admission: while every queue is full
// it waits for a slot only as long as ctx lives, returning ctx's error when
// cancellation wins the race. An accepted task is guaranteed to run — once
// SubmitCtx returns nil the task is the pool's responsibility and the
// caller's ctx no longer influences whether it executes (tasks that must
// observe cancellation watch the ctx themselves).
func (p *Pool) SubmitCtx(ctx context.Context, fn func()) error {
	if ctx == nil {
		return p.Submit(fn)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := p.reserve(); err != nil {
		return err
	}
	if p.parked.Load() > 0 {
		select {
		case p.handoff <- fn:
			return nil
		default:
		}
	}
	p.pending.Add(1)
	i := int(p.cursor.Add(1) % uint64(len(p.shards)))
	for k := 0; k < len(p.shards); k++ {
		select {
		case p.shards[(i+k)%len(p.shards)] <- fn:
			p.poke()
			return nil
		default:
		}
	}
	select {
	case p.shards[i] <- fn:
		p.poke()
		return nil
	case p.handoff <- fn:
		p.pending.Add(-1)
		return nil
	case <-ctx.Done():
		// Undo the reservation: the task was never queued, so the counters
		// must not show a submission that will never complete.
		p.pending.Add(-1)
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
		QueueCap:  p.queueCap,
		Submitted: p.submitted.Load(),
		Completed: p.completed.Load(),
	}
}
