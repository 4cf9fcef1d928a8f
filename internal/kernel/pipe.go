package kernel

import (
	"io"

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

// conn is one endpoint of a connected stream-socket pair (Unix-domain or
// TCP-like). Each direction is its own ring; writing queues on the peer's
// receive ring.
type conn struct {
	recv *pagebuf.Ring
	peer *pagebuf.Ring
}

var _ file = (*conn)(nil)

func newConnPair(capBytes int) (*conn, *conn) {
	r1 := pagebuf.NewRing(capBytes)
	r2 := pagebuf.NewRing(capBytes)
	return &conn{recv: r1, peer: r2}, &conn{recv: r2, peer: r1}
}

func (c *conn) writeRefs(refs []pagebuf.Ref) error {
	return c.peer.Push(refs)
}

func (c *conn) readRefs(dst []pagebuf.Ref, max int) ([]pagebuf.Ref, error) {
	return c.recv.PopAppend(dst, max)
}

func (c *conn) readInto(b []byte) (int, error) {
	return c.recv.ReadInto(b)
}

func (c *conn) capacity() int { return c.recv.Cap() }

func (c *conn) close() error {
	// FIN towards the peer: data already queued for it stays readable and
	// its reads drain then hit EOF.
	c.peer.Close()
	// Data queued for this endpoint can never be read again — discard it so
	// the pages return to the pool (a real kernel frees the receive queue on
	// close the same way).
	c.recv.Close()
	c.recv.Drain()
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
