// Package a exercises the fdclose analyzer: stubs mimicking the simulated
// kernel's descriptor surface (Proc.Pipe/Close, Connect, SocketPair,
// NewStream), a reproduction of the baseline transfers' error-path leak,
// and the shapes that discharge a descriptor.
package a

import "errors"

type Proc struct{}

func (p *Proc) Pipe() (int, int)                    { return 0, 1 }
func (p *Proc) PipeSized(n int) (int, int)          { return 0, 1 }
func (p *Proc) Close(fd int) error                  { return nil }
func (p *Proc) Write(fd int, b []byte) (int, error) { return len(b), nil }

func Connect(client, server *Proc) (int, int) { return 0, 0 }
func SocketPair(a, b *Proc) (int, int, error) { return 0, 0, nil }

// Stream mimics kernel.Stream: it wraps a descriptor, it does not own it.
type Stream struct {
	proc *Proc
	fd   int
}

func NewStream(p *Proc, fd int) *Stream { return &Stream{proc: p, fd: fd} }

var errSend = errors.New("send failed")

// baselineLeak reproduces the WasmEdge/RunC baseline bug: both socket
// ends are open when the send fails, and the error return closes neither.
func baselineLeak(src, dst *Proc, b []byte) error {
	cfd, sfd := Connect(src, dst)
	if _, err := src.Write(cfd, b); err != nil {
		return err // want `descriptor "cfd" opened at .* may leak` `descriptor "sfd" opened at .* may leak`
	}
	_ = src.Close(cfd)
	_ = dst.Close(sfd)
	return nil
}

// baselineFixed is the fix: every failure past the connect goes through a
// closure that closes both ends. No diagnostic.
func baselineFixed(src, dst *Proc, b []byte) error {
	cfd, sfd := Connect(src, dst)
	fail := func(err error) error {
		_ = src.Close(cfd)
		_ = dst.Close(sfd)
		return err
	}
	if _, err := src.Write(cfd, b); err != nil {
		return fail(err)
	}
	_ = src.Close(cfd)
	_ = dst.Close(sfd)
	return nil
}

// streamDoesNotOwn wraps the descriptor in a Stream and walks away: the
// wrapper never closes it, so the mention is not a discharge.
func streamDoesNotOwn(src, dst *Proc) *Stream {
	cfd, sfd := Connect(src, dst)
	_ = dst.Close(sfd)
	s := NewStream(src, cfd)
	_ = s
	return nil // want `descriptor "cfd" opened at .* may leak`
}

type channel struct{ cfd, sfd, fdA, fdB int }

// establish is the channel-cache shape: descriptors assigned straight into
// a structure are never a site, and locals stored into one are handed to
// whoever owns it. No diagnostic.
func establish(src, dst *Proc) (*channel, error) {
	c := &channel{}
	c.cfd, c.sfd = Connect(src, dst)
	fdA, fdB, err := SocketPair(src, dst)
	if err != nil {
		return nil, err
	}
	c.fdA, c.fdB = fdA, fdB
	return c, nil
}

// returned hands both ends to the caller, as Pipe itself does. No
// diagnostic.
func returned(p *Proc) (int, int) {
	r, w := p.PipeSized(4096)
	return r, w
}

// deferredClose covers every exit at once. No diagnostic.
func deferredClose(p *Proc, b []byte) error {
	r, w := p.Pipe()
	defer func() {
		_ = p.Close(r)
		_ = p.Close(w)
	}()
	_, err := p.Write(w, b)
	return err
}

// halfClosed closes the read end only.
func halfClosed(p *Proc) {
	r, w := p.Pipe()
	_ = w
	_ = p.Close(r)
} // want `descriptor "w" opened at .* may leak`

// pairFails opens nothing when SocketPair errs: the paired error prunes
// that branch. No diagnostic.
func pairFails(a, b *Proc) error {
	fdA, fdB, err := SocketPair(a, b)
	if err != nil {
		return err
	}
	_ = a.Close(fdA)
	return b.Close(fdB)
}

// discarded drops both ends on the floor.
func discarded(p *Proc) {
	p.Pipe()        // want "descriptor discarded"
	_, _ = p.Pipe() // want "descriptor discarded"
}
