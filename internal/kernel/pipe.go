package kernel

import (
	"io"
	"runtime"
	"sync"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/pagebuf"
)

// pipe is the kernel object behind a pipe(2) pair: a bounded ring of page
// references. It is the concrete realization of the paper's "virtual data
// hose" — data written to it prompts the kernel to retain memory buffers in
// its address space, and reads reuse the same pages instead of copying
// (§1, contribution 2).
type pipe struct {
	ring *pagebuf.Ring
}

func newPipe(capBytes int) *pipe {
	return &pipe{ring: pagebuf.NewRing(capBytes)}
}

// pipeEnd is one descriptor of a pipe: read or write side.
type pipeEnd struct {
	pipe     *pipe
	readable bool
	writable bool
}

var _ file = (*pipeEnd)(nil)

func (pe *pipeEnd) writeRefs(refs []pagebuf.Ref) error {
	if !pe.writable {
		pagebuf.ReleaseAll(refs)
		return ErrBadFD
	}
	return pe.pipe.ring.Push(refs)
}

func (pe *pipeEnd) readRefs(dst []pagebuf.Ref, max int) ([]pagebuf.Ref, error) {
	if !pe.readable {
		return dst, ErrBadFD
	}
	return pe.pipe.ring.PopAppend(dst, max)
}

func (pe *pipeEnd) readInto(b []byte) (int, error) {
	if !pe.readable {
		return 0, ErrBadFD
	}
	return pe.pipe.ring.ReadInto(b)
}

func (pe *pipeEnd) capacity() int { return pe.pipe.ring.Cap() }

func (pe *pipeEnd) writeCopy(pool *pagebuf.Pool, scratch []pagebuf.Ref, b []byte) (int, []pagebuf.Ref, error) {
	return stageWhole(pe, pool, scratch, b)
}

func (pe *pipeEnd) readFull(_ *pagebuf.Pool, scratch []pagebuf.Ref, b []byte) (int, []pagebuf.Ref, error) {
	return popFull(pe, scratch, b)
}

func (pe *pipeEnd) close() error {
	if pe.writable {
		pe.pipe.ring.Close()
	}
	if pe.readable {
		// Dropping the read side discards queued pages, as the kernel
		// does when the last reader goes away.
		pe.pipe.ring.Drain()
	}
	return nil
}

// sendWindow is one direction of a sized socket: its SO_SNDBUF accounting
// and, once a Write and a ReadFull have met on it, their rendezvous.
//
// Accounting: the copied bytes a writer has staged in pool blocks and no
// reader has yet consumed never exceed limit. The socket ring itself stays
// unbounded — references moved in by Splice or Tee are lent pages, queue
// without waiting and are never charged — so the window keeps a run-length
// record of what is queued, in order, to know how much of each consumption
// was charged. A stream of one kind (all writes, or all lent references) is
// a single run. Every push onto and pop off the direction's ring happens
// under mu, so the record is the ring's exact mirror, and everything that
// waits on the direction waits here, never inside the ring.
//
// Rendezvous: the window bounds what a writer queues ahead of a reader that
// has not arrived. While a ReadFull is in progress (rd) nothing more is
// queued behind it; once what was queued has drained the stream is aligned —
// nothing charged, nothing on the ring — and the bytes still to come need no
// queue at all: each of the two calling threads claims the next segment of
// the Write's source and of the ReadFull's destination under mu and moves it
// source → its own pool blocks → destination outside it (relay). The two
// copies stay real and stay in kernel memory; what is gone is the hand-off,
// and with it every cache line of a slab crossing from the writer's core to
// the reader's.
type sendWindow struct {
	// What a transfer writes comes first and packed: the two threads of a
	// transfer run on two cores, and every cache line of the window they
	// both write changes hands at each of their turns.
	mu sync.Mutex
	//roadvet:guards mu
	charged int // copied bytes reserved or queued, not yet consumed
	//roadvet:guards mu
	runs []windowRun // FIFO of queued bytes, merged by kind
	//roadvet:guards mu
	wr, rd relayEnd // the Write and the ReadFull in progress
	//roadvet:guards mu
	closed bool

	ring  *pagebuf.Ring // the direction's receive queue
	limit int
	room  waitq // where the writing side's threads park
	data  waitq // where the reading side's threads park

	// claimed, when a test sets it (before the direction is used), runs on
	// the relaying thread — byWriter tells which — after it has claimed a
	// segment and released mu, before it moves the bytes.
	claimed func(byWriter bool)
}

// waitq is a condition variable on the window's lock that knows whether
// anyone is parked on it, so the paths every call takes skip the wake-up
// nobody is waiting for. Both methods are called with the lock held.
type waitq struct {
	cond   sync.Cond
	parked int
}

func (q *waitq) wait() {
	q.parked++
	q.cond.Wait()
	q.parked--
}

// wake makes whoever is parked on q runnable and reports whether anyone was.
func (q *waitq) wake() bool {
	if q.parked == 0 {
		return false
	}
	q.cond.Broadcast()
	return true
}

// windowRun is n consecutive queued bytes that are all charged or all lent.
type windowRun struct {
	n       int
	charged bool
}

// relayEnd is one side of a direction: the Write or the ReadFull in
// progress on it (one at a time per side; a second waits its turn).
type relayEnd struct {
	// rest is what no segment has claimed yet of the call's buffer — the
	// Write's source, the ReadFull's destination.
	rest   []byte
	active bool
	// moving is set while the side's own thread moves a segment it claimed:
	// the peer's call may not return before its buffer is let go of.
	moving bool
}

func newSendWindow(ring *pagebuf.Ring, limit int) *sendWindow {
	w := &sendWindow{ring: ring, limit: limit}
	w.room.cond.L = &w.mu
	w.data.cond.L = &w.mu
	return w
}

// segment is the unit a windowed write proceeds in, queued or relayed: a
// slab, or the whole window when it is smaller than one, in whole pages and
// at least one (a window below a page admits a page at a time).
func (w *sendWindow) segment() int {
	return max(min(pagebuf.SlabSize, w.limit)&^(pagebuf.PageSize-1), pagebuf.PageSize)
}

// side names the two ends from the writing or the reading thread's point of
// view: its own and the peer's, and where each parks. Caller holds w.mu.
func (w *sendWindow) side(writer bool) (me, peer *relayEnd, park, wake *waitq) {
	if writer {
		return &w.wr, &w.rd, &w.room, &w.data
	}
	return &w.rd, &w.wr, &w.data, &w.room
}

// enter makes b — a Write's source or a ReadFull's destination — its side's
// call in progress, after any earlier one has left. Caller holds w.mu.
func (w *sendWindow) enter(writer bool, b []byte) {
	me, _, park, _ := w.side(writer)
	for me.active {
		park.wait()
	}
	me.active, me.rest = true, b
}

// leave ends the side's call in progress and returns the part of its buffer
// no segment ever claimed. It returns only when the peer's thread has
// finished the segment it claimed out of (or into) that buffer, so a
// returned Write's source is no longer read and a returned ReadFull's
// destination holds every byte it was promised. Caller holds w.mu.
func (w *sendWindow) leave(writer bool) []byte {
	me, peer, park, _ := w.side(writer)
	for peer.moving {
		park.wait()
	}
	unclaimed := me.rest
	me.active, me.rest = false, nil
	// The next call of this side takes its turn; a writer that held back for
	// this reader goes back to queueing.
	w.room.wake()
	w.data.wake()
	return unclaimed
}

// engaged reports whether a ReadFull in progress still has room to fill: the
// writer then queues nothing more behind it. Caller holds w.mu.
func (w *sendWindow) engaged() bool { return w.rd.active && len(w.rd.rest) > 0 }

// aligned reports whether the next byte of the Write in progress is the next
// byte the ReadFull in progress is waiting for: both have something left, and
// nothing is charged (queued, or reserved and still being copied) or lent
// onto the ring between them. Caller holds w.mu.
func (w *sendWindow) aligned() bool {
	return len(w.wr.rest) > 0 && len(w.rd.rest) > 0 && w.charged == 0 && len(w.runs) == 0 && !w.closed
}

// relay moves segments on the calling thread — the Write's or the
// ReadFull's — for as long as the stream is aligned: claim the next one from
// both buffers, bounce it through held outside the lock, come back for
// another. Whoever claims while more remains wakes the peer's thread, which
// does the same with its own blocks. A claim that wakes a parked peer hands
// it this core, once per call: one yield, holding no lock, so the peer runs
// here at once and the yielder continues on the other core, taken from the
// run queue — rather than the other core stealing the peer from this one's
// next-in-line slot, which takes ten times as long (BenchmarkSecondCoreJoin,
// DESIGN §3). Caller holds w.mu, as it does again on return.
func (w *sendWindow) relay(writer bool, pool *pagebuf.Pool, held []pagebuf.Ref) []pagebuf.Ref {
	me, peer, _, wake := w.side(writer)
	yielded := false
	for w.aligned() {
		n := min(w.segment(), len(w.wr.rest), len(w.rd.rest))
		src, dst := w.wr.rest[:n], w.rd.rest[:n]
		w.wr.rest, w.rd.rest = w.wr.rest[n:], w.rd.rest[n:]
		me.moving = true
		handoff := w.aligned() && wake.wake() && !yielded
		w.mu.Unlock()
		if handoff {
			yielded = true
			runtime.Gosched()
		}
		if w.claimed != nil {
			w.claimed(writer)
		}
		held = bounce(pool, held, src, dst)
		w.mu.Lock()
		me.moving = false
		if len(peer.rest) == 0 {
			// The peer's call has nothing left to claim and may be waiting
			// for this segment to let go of its buffer.
			wake.wake()
		}
	}
	return held
}

// bouncePiece is how much of its block a relaying thread bounces bytes
// through at a time: a quarter slab, small enough to still be in the core's
// L1 when the second copy reads what the first wrote.
const bouncePiece = pagebuf.SlabSize / 4

// bounce is the copy path's two copies for one relayed segment: src into the
// pool block the thread holds (copy_from_user), that into dst (copy_to_user),
// piece by piece. The block — a slab once a segment is a slab's worth, a page
// for less — is taken by the copy-in of the thread's first piece and kept for
// the rest of its call: taking and releasing per segment would let a slab
// migrate between the two cores through the pool's free lists. held is that
// one block, or empty before the first.
func bounce(pool *pagebuf.Pool, held []pagebuf.Ref, src, dst []byte) []pagebuf.Ref {
	first := min(len(src), pagebuf.PageSize)
	if len(src) >= pagebuf.SlabSize {
		first = pagebuf.SlabSize
	}
	if pagebuf.TotalLen(held) < first {
		pagebuf.ReleaseAll(held)
		held = pool.AppendCopy(held[:0], src[:first])
		src, dst = src[first:], dst[copy(dst, held[0].Bytes()):]
	}
	block := held[0].Bytes()
	for block = block[:min(len(block), bouncePiece)]; len(src) > 0; {
		n := copy(block, src)
		src, dst = src[n:], dst[copy(dst, block[:n]):]
	}
	return held
}

// reserve admits the next segment of a Write for queueing: it blocks until
// the segment fits the window — or the window is empty, so a segment larger
// than the whole window still goes through, alone — charges it and returns
// it, to be copied and pushed. It queues nothing behind an engaged reader: it
// waits for the stream to align and relays instead. A Write's first call
// passes its source, which enters; later ones pass nil. An error ends the
// Write, which has then left, and comes with the part of the source nobody
// took: io.EOF, with none, once every byte was admitted or relayed by
// either thread.
func (w *sendWindow) reserve(pool *pagebuf.Pool, held []pagebuf.Ref, b []byte) ([]byte, []pagebuf.Ref, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(b) > 0 {
		w.enter(true, b)
	}
	for {
		held = w.relay(true, pool, held)
		n := min(w.segment(), len(w.wr.rest))
		switch {
		case w.closed:
			return w.leave(true), held, pagebuf.ErrClosedRing
		case n == 0:
			return w.leave(true), held, io.EOF
		case !w.engaged() && (w.charged+n <= w.limit || w.charged == 0):
			chunk := w.wr.rest[:n]
			w.wr.rest = w.wr.rest[n:]
			w.charged += n
			return chunk, held, nil
		}
		w.room.wait()
	}
}

// push queues refs and records them as one run. The window lock is held
// across the push so the record mirrors the ring's order; the ring of a
// socket is unbounded, so the push does not wait. Charged references are a
// Write's reserved segment: the push that queues the tail of its source is
// the Write's last act on the window, so it leaves there; one the ring
// refuses — the connection closed under the copy — closes the window, which
// the Write's next reserve reports.
func (w *sendWindow) push(refs []pagebuf.Ref, charged bool) error {
	n := pagebuf.TotalLen(refs)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.ring.Push(refs); err != nil {
		w.shut()
		return err
	}
	if last := len(w.runs) - 1; last >= 0 && w.runs[last].charged == charged {
		w.runs[last].n += n
	} else {
		w.runs = append(w.runs, windowRun{n, charged})
	}
	w.data.wake()
	if charged && len(w.wr.rest) == 0 {
		w.leave(true)
	}
	return nil
}

// awaitData parks until something is queued or the direction is closed —
// either way the ring then answers without blocking. Caller holds w.mu.
func (w *sendWindow) awaitData() {
	for len(w.runs) == 0 && !w.closed {
		w.data.wait()
	}
}

// pop dequeues up to max queued bytes of references, appending them to dst,
// once any are queued or the direction is closed (then io.EOF when drained),
// and credits the charged ones back to the writer. Caller holds w.mu.
func (w *sendWindow) pop(dst []pagebuf.Ref, max int) ([]pagebuf.Ref, int, error) {
	w.awaitData()
	base := len(dst)
	dst, err := w.ring.PopAppend(dst, max)
	n := pagebuf.TotalLen(dst[base:])
	w.consumed(n)
	return dst, n, err
}

// consumed records that n bytes left the head of the queue, crediting the
// charged ones back to the writer. A writer parked for room is woken unless
// a reader is engaged — that writer is waiting for the stream to align, and
// the reader's relay wakes it then. Caller holds w.mu.
func (w *sendWindow) consumed(n int) {
	for n > 0 && len(w.runs) > 0 {
		head := &w.runs[0]
		took := min(n, head.n)
		head.n -= took
		n -= took
		if head.charged {
			w.charged -= took
		}
		if head.n == 0 {
			w.runs = w.runs[:copy(w.runs, w.runs[1:])]
		}
	}
	if !w.engaged() {
		w.room.wake()
	}
}

// pull hands a ReadFull the next queued references, appended to refs, and
// the part of its destination they are to be copied into — what was queued
// ahead of the reader always drains first, in order. With nothing queued it
// relays while the stream is aligned and waits otherwise. A ReadFull's first
// call passes its destination, which enters; later ones pass nil. The
// ReadFull leaves with the references that fill the tail of its destination,
// or without any: what comes instead is the part of the destination nobody
// filled — none, or, with io.EOF once the direction is closed and drained,
// its tail.
func (w *sendWindow) pull(pool *pagebuf.Pool, refs, held []pagebuf.Ref, b []byte) ([]pagebuf.Ref, []pagebuf.Ref, []byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(b) > 0 {
		w.enter(false, b)
	}
	for {
		held = w.relay(false, pool, held)
		switch {
		case len(w.rd.rest) == 0:
			return refs, held, w.leave(false), nil
		case len(w.runs) > 0 || w.closed:
			refs, n, err := w.pop(refs, min(len(w.rd.rest), pagebuf.SlabSize))
			if n == 0 {
				return refs, held, w.leave(false), err
			}
			dst := w.rd.rest[:n]
			if w.rd.rest = w.rd.rest[n:]; len(w.rd.rest) == 0 {
				w.leave(false)
			}
			return refs, held, dst, nil
		}
		w.data.wait()
	}
}

// shut marks the direction dead and wakes everything waiting on it. Caller
// holds w.mu.
func (w *sendWindow) shut() {
	w.closed = true
	w.room.wake()
	w.data.wake()
}

// close fails everything waiting on the window and every later reservation:
// the connection is gone; no room, data or rendezvous will ever come.
func (w *sendWindow) close() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.shut()
	w.mu.Unlock()
}

// conn is one endpoint of a connected stream-socket pair (Unix-domain or
// TCP-like). Each direction is its own ring; writing queues on the peer's
// receive ring. A sized pair (SocketPairSized) carries a send window per
// direction: snd governs what this endpoint writes, rcv — the peer's snd —
// what it reads.
type conn struct {
	recv     *pagebuf.Ring
	peer     *pagebuf.Ring
	snd, rcv *sendWindow // nil on unsized sockets
}

var _ file = (*conn)(nil)

// newConnPair returns a connected pair; sndbuf > 0 sizes both directions.
func newConnPair(sndbuf int) (*conn, *conn) {
	c1 := &conn{recv: pagebuf.NewRing(DefaultSocketCap), peer: pagebuf.NewRing(DefaultSocketCap)}
	c2 := &conn{recv: c1.peer, peer: c1.recv}
	if sndbuf > 0 {
		c1.snd, c1.rcv = newSendWindow(c1.peer, sndbuf), newSendWindow(c1.recv, sndbuf)
		c2.snd, c2.rcv = c1.rcv, c1.snd
	}
	return c1, c2
}

func (c *conn) writeRefs(refs []pagebuf.Ref) error {
	if c.snd != nil {
		return c.snd.push(refs, false)
	}
	return c.peer.Push(refs)
}

func (c *conn) readRefs(dst []pagebuf.Ref, max int) ([]pagebuf.Ref, error) {
	if c.rcv == nil || max <= 0 {
		return c.recv.PopAppend(dst, max)
	}
	w := c.rcv
	w.mu.Lock()
	defer w.mu.Unlock()
	dst, _, err := w.pop(dst, max)
	return dst, err
}

func (c *conn) readInto(b []byte) (int, error) {
	if c.rcv == nil || len(b) == 0 {
		return c.recv.ReadInto(b)
	}
	w := c.rcv
	w.mu.Lock()
	defer w.mu.Unlock()
	w.awaitData()
	n, err := w.ring.ReadInto(b)
	w.consumed(n)
	return n, err
}

func (c *conn) capacity() int { return c.recv.Cap() }

// tail reports whether part, a piece of whole, ends where whole does. Pieces
// of a call's buffer are handed out in order, so the call handed the tail
// knows that every byte of the buffer has been claimed.
func tail(part, whole []byte) bool {
	return len(part) > 0 && &part[len(part)-1] == &whole[len(whole)-1]
}

// writeCopy on a sized socket proceeds segment by segment as write(2) does
// against SO_SNDBUF, in one loop with two states. Ahead of a reader that has
// not arrived it queues: wait until the segment fits the send window, copy
// it into a slab, push it. Once a ReadFull is in progress on the other end
// reserve stops admitting and relays instead (see sendWindow), on this
// thread and through blocks it holds until the call returns. The count
// returned is what was queued or relayed.
func (c *conn) writeCopy(pool *pagebuf.Pool, refs []pagebuf.Ref, b []byte) (int, []pagebuf.Ref, error) {
	w := c.snd
	if w == nil {
		return stageWhole(c, pool, refs, b)
	}
	if len(b) == 0 {
		return 0, refs, nil
	}
	var block [1]pagebuf.Ref
	held, unqueued := block[:0], 0
	var chunk []byte
	var err error
	for src := b; ; src = nil {
		if chunk, held, err = w.reserve(pool, held, src); err != nil {
			// The Write has left; chunk is what nobody took.
			pagebuf.ReleaseAll(held)
			if err == io.EOF {
				err = nil
			}
			return len(b) - len(chunk) - unqueued, refs, err
		}
		refs = pool.AppendCopy(refs[:0], chunk)
		if w.push(refs, true) != nil {
			unqueued = len(chunk)
		} else if tail(chunk, b) {
			pagebuf.ReleaseAll(held)
			return len(b), refs, nil
		}
	}
}

// readFull on a sized socket is writeCopy's mirror: pop what was queued
// ahead of it, a slab's worth at a time, and copy it out outside the lock;
// once that has drained and a Write is in progress, relay.
func (c *conn) readFull(pool *pagebuf.Pool, refs []pagebuf.Ref, b []byte) (int, []pagebuf.Ref, error) {
	w := c.rcv
	if w == nil {
		return popFull(c, refs, b)
	}
	if len(b) == 0 {
		return 0, refs, nil
	}
	var block [1]pagebuf.Ref
	held := block[:0]
	for into := b; ; into = nil {
		var dst []byte
		var err error
		if refs, held, dst, err = w.pull(pool, refs[:0], held, into); len(refs) == 0 {
			// The ReadFull has left; dst is what nobody filled.
			pagebuf.ReleaseAll(held)
			return len(b) - len(dst), refs, err
		}
		last := tail(dst, b)
		for _, r := range refs {
			dst = dst[copy(dst, r.Bytes()):]
		}
		pagebuf.ReleaseAll(refs)
		if last {
			pagebuf.ReleaseAll(held)
			return len(b), refs, nil
		}
	}
}

func (c *conn) close() error {
	// FIN towards the peer: data already queued for it stays readable and
	// its reads drain then hit EOF.
	c.peer.Close()
	// Data queued for this endpoint can never be read again — discard it so
	// the pages return to the pool (a real kernel frees the receive queue on
	// close the same way).
	c.recv.Close()
	c.recv.Drain()
	// Nobody will write or read here again: fail whatever waits on either
	// window — for room, for data, or in a rendezvous. The rings are closed
	// first, so a woken reader finds what is left of the queue, then EOF.
	c.snd.close()
	c.rcv.close()
	return nil
}

// Stream adapts a process/descriptor pair to io.ReadWriteCloser so byte-
// oriented layers (e.g. internal/minihttp) can speak over simulated sockets
// while every operation is still metered through the owning process.
type Stream struct {
	proc *Proc
	fd   int
}

var _ io.ReadWriteCloser = (*Stream)(nil)

// NewStream wraps an open descriptor of proc.
func NewStream(proc *Proc, fd int) *Stream { return &Stream{proc: proc, fd: fd} }

// FD returns the wrapped descriptor.
func (s *Stream) FD() int { return s.fd }

// Read implements io.Reader via the read(2) path.
func (s *Stream) Read(b []byte) (int, error) {
	n, err := s.proc.Read(s.fd, b)
	if err == io.EOF && n > 0 {
		return n, nil
	}
	return n, err
}

// Write implements io.Writer via the write(2) path.
func (s *Stream) Write(b []byte) (int, error) {
	return s.proc.Write(s.fd, b)
}

// Close closes the descriptor.
func (s *Stream) Close() error { return s.proc.Close(s.fd) }
