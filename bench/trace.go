package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer: the public op, or one probe call. Parent names the span that caused
// it: the layer run for the traced op loop and for each probe, the loop for
// an op, the probe for one of its samples. Spans of one op share Op. Times are
// nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Each goroutine records
// into its own track, so recording takes no lock.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	nextOp atomic.Int64

	mu     sync.Mutex
	tracks []*track
}

type track struct {
	tr    *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (tr *tracer) newTrack() *track {
	t := &track{tr: tr}
	tr.mu.Lock()
	tr.tracks = append(tr.tracks, t)
	tr.mu.Unlock()
	return t
}

// newID reserves a span id. A span that encloses others takes its id before
// they start, so they can name it, and is recorded when it ends.
func (tr *tracer) newID() int64 { return tr.nextID.Add(1) }

// record appends the span with the given id.
func (t *track) record(id int64, name string, parent, op int64, start, end time.Time) {
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.tr.epoch)), End: int64(end.Sub(t.tr.epoch)),
	})
}

// count returns the number of spans recorded so far. Call it only once the
// recording goroutines have finished.
func (tr *tracer) count() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, t := range tr.tracks {
		n += len(t.spans)
	}
	return n
}

// writeTo writes every span as one JSON line.
func (tr *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, t := range tr.tracks {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
