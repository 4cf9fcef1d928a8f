package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// arrivals returns the due offsets of a Poisson arrival process at rate
// ops/s over window: exponential inter-arrival times drawn from seed, so the
// same seed offers the same schedule.
func arrivals(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= window {
			return due
		}
		due = append(due, at)
	}
}

// openLoop offers ops on a fixed schedule regardless of completions. The
// clock is injected so a test can stall an op deterministically.
type openLoop struct {
	now   func() time.Time
	sleep func(time.Duration)
}

// openResult is what one open-loop window observed.
type openResult struct {
	// latency[i] is the instant op i's last public call returned minus its
	// due time — not its dispatch or service start — so the wait a stalled
	// op imposes on the ops queued behind it is charged to them.
	latency []time.Duration
	// late[i] is how far behind its due time op i was dispatched: the
	// generator's own lateness.
	late []time.Duration
	// completedInWindow counts the ops finished when the window closed;
	// the rest were still queued or running (the backlog) and were drained
	// afterwards.
	completedInWindow int
}

// run dispatches op(client, i) for every due offset to the given number of
// client goroutines and returns once every op has completed. op returns the
// instant its last public call returned; what it does after that
// (verification, releases) keeps the client busy but is in no op's own
// latency. The generator sleeps until each due time, never spinning a core
// away from the workers.
func (ol openLoop) run(due []time.Duration, window time.Duration, clients int, op func(client, i int) (done time.Time)) openResult {
	res := openResult{
		latency: make([]time.Duration, len(due)),
		late:    make([]time.Duration, len(due)),
	}
	// Sized to the number of sends: the generator must never block on a
	// slow system, or the loop would close.
	queue := make(chan int, len(due))
	var completed atomic.Int64
	start := ol.now()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queue {
				res.latency[i] = op(c, i).Sub(start) - due[i]
				completed.Add(1)
			}
		}(c)
	}
	for i, at := range due {
		if wait := at - ol.now().Sub(start); wait > 0 {
			ol.sleep(wait)
		}
		res.late[i] = ol.now().Sub(start) - at
		queue <- i
	}
	close(queue)
	if wait := window - ol.now().Sub(start); wait > 0 {
		ol.sleep(wait)
	}
	res.completedInWindow = int(completed.Load())
	wg.Wait()
	return res
}

// saturated reports whether an open-loop round failed to keep up with its
// offered load: more than 2 % of the arrivals (and more than a few ops per
// client, so a short round is not judged on one straggler) were still
// unfinished when it closed. That is both "completed rate below 0.98 × offered"
// and the end state of a growing backlog.
func saturated(offered, completedInWindow, clients int) bool {
	backlog := offered - completedInWindow
	return float64(backlog) > math.Max(0.02*float64(offered), float64(4*clients))
}
