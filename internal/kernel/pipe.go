package kernel

import (
	"io"
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

// sendWindow is one direction's SO_SNDBUF accounting on a sized socket: the
// copied bytes a writer has staged in pool blocks and the reader has not yet
// consumed never exceed limit. The socket ring itself stays unbounded —
// references moved in by Splice or Tee are lent pages, queue without waiting
// and are never charged — so the window keeps a run-length record of what is
// queued, in order, to know how much of each consumption was charged. A
// stream of one kind (all writes, or all lent references) is a single run.
type sendWindow struct {
	ring  *pagebuf.Ring // the direction's receive queue
	limit int

	mu   sync.Mutex
	room sync.Cond // signalled when charged drops or the window closes
	//roadvet:guards mu
	charged int // copied bytes reserved or queued, not yet consumed
	//roadvet:guards mu
	runs []windowRun // FIFO of queued bytes, merged by kind
	//roadvet:guards mu
	closed bool
}

// windowRun is n consecutive queued bytes that are all charged or all lent.
type windowRun struct {
	n       int
	charged bool
}

func newSendWindow(ring *pagebuf.Ring, limit int) *sendWindow {
	w := &sendWindow{ring: ring, limit: limit}
	w.room.L = &w.mu
	return w
}

// segment is the unit a windowed write proceeds in: a slab, or the whole
// window when it is smaller than one, in whole pages and at least one (a
// window below a page admits a page at a time).
func (w *sendWindow) segment() int {
	return max(min(pagebuf.SlabSize, w.limit)&^(pagebuf.PageSize-1), pagebuf.PageSize)
}

// reserve blocks until n more copied bytes fit the window — or the window is
// empty, so a segment larger than the whole window still goes through, alone
// — and charges them.
func (w *sendWindow) reserve(n int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.charged+n > w.limit && w.charged > 0 && !w.closed {
		w.room.Wait()
	}
	if w.closed {
		return pagebuf.ErrClosedRing
	}
	w.charged += n
	return nil
}

// push queues refs and records them as one run. The window lock is held
// across the push so the record mirrors the ring's order; the ring of a
// socket is unbounded, so the push does not wait.
func (w *sendWindow) push(refs []pagebuf.Ref, charged bool) error {
	n := pagebuf.TotalLen(refs)
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.ring.Push(refs); err != nil {
		return err
	}
	if last := len(w.runs) - 1; last >= 0 && w.runs[last].charged == charged {
		w.runs[last].n += n
	} else {
		w.runs = append(w.runs, windowRun{n, charged})
	}
	return nil
}

// consumed records that the reader took n bytes off the head of the queue,
// crediting the charged ones back to the writer.
func (w *sendWindow) consumed(n int) {
	w.mu.Lock()
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
	w.mu.Unlock()
	w.room.Signal()
}

// close fails the writer blocked on (and every later reservation of) the
// window: the connection is gone and the room will never come.
func (w *sendWindow) close() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.room.Broadcast()
}

// conn is one endpoint of a connected stream-socket pair (Unix-domain or
// TCP-like). Each direction is its own ring; writing queues on the peer's
// receive ring. A sized pair (SocketPairSized) carries a send window per
// direction: snd bounds what this endpoint writes, rcv is the peer's window
// this endpoint credits as it reads.
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
	base := len(dst)
	dst, err := c.recv.PopAppend(dst, max)
	if c.rcv != nil {
		c.rcv.consumed(pagebuf.TotalLen(dst[base:]))
	}
	return dst, err
}

func (c *conn) readInto(b []byte) (int, error) {
	n, err := c.recv.ReadInto(b)
	if c.rcv != nil {
		c.rcv.consumed(n)
	}
	return n, err
}

func (c *conn) capacity() int { return c.recv.Cap() }

// writeCopy on a sized socket proceeds segment by segment as write(2) does
// against SO_SNDBUF: wait until the segment fits the send window, copy it
// into a slab, queue it (which wakes the reader).
func (c *conn) writeCopy(pool *pagebuf.Pool, refs []pagebuf.Ref, b []byte) (int, []pagebuf.Ref, error) {
	if c.snd == nil {
		return stageWhole(c, pool, refs, b)
	}
	seg, done := c.snd.segment(), 0
	for done < len(b) {
		chunk := b[done:min(done+seg, len(b))]
		if err := c.snd.reserve(len(chunk)); err != nil {
			return done, refs, err
		}
		refs = pool.AppendCopy(refs[:0], chunk)
		if err := c.snd.push(refs, true); err != nil {
			return done, refs, err
		}
		done += len(chunk)
	}
	return done, refs, nil
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
	// Nobody will write or read here again: fail a writer waiting for room
	// on either window.
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
