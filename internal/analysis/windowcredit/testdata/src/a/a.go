// Package a exercises the windowcredit analyzer: a stub of the kernel's
// sendWindow and its one production user (conn.writeCopy), plus the leak
// the gate exists for — a reservation that returns before its push.
package a

import "errors"

type Ref struct{}

type sendWindow struct{ charged int }

func (w *sendWindow) reserve(n int) error                 { return nil }
func (w *sendWindow) push(refs []Ref, charged bool) error { return nil }

type conn struct{ snd, rcv *sendWindow }

func copyInto(refs []Ref, b []byte) []Ref { return refs }

var errTooBig = errors.New("segment too big")

// writeCopy is the production shape, verbatim: per segment, reserve (a
// failed reserve holds no credit), copy, push — whose failure still
// queued nothing but has settled the bracket with the window. No
// diagnostic.
func (c *conn) writeCopy(refs []Ref, b []byte, seg int) (int, []Ref, error) {
	done := 0
	for done < len(b) {
		chunk := b[done:min(done+seg, len(b))]
		if err := c.snd.reserve(len(chunk)); err != nil {
			return done, refs, err
		}
		refs = copyInto(refs[:0], chunk)
		if err := c.snd.push(refs, true); err != nil {
			return done, refs, err
		}
		done += len(chunk)
	}
	return done, refs, nil
}

// earlyReturn reserves, then bails before the push: the window stays
// charged for bytes no reader will ever consume.
func (c *conn) earlyReturn(refs []Ref, b []byte) error {
	if err := c.snd.reserve(len(b)); err != nil { // want `c\.snd\.reserve\(\) is not followed by a push on every path`
		return err
	}
	if len(b) > 1<<16 {
		return errTooBig
	}
	return c.snd.push(copyInto(refs, b), true)
}

// wrongWindow pushes on the peer's window: the bracket is keyed on the
// receiver, so the reservation on snd stays open.
func (c *conn) wrongWindow(refs []Ref, b []byte) error {
	if err := c.snd.reserve(len(b)); err != nil { // want `c\.snd\.reserve\(\) is not followed by a push`
		return err
	}
	return c.rcv.push(refs, true)
}

// lentRefs queues references without reserving (the Splice/Tee path): a
// push alone opens nothing. No diagnostic.
func (c *conn) lentRefs(refs []Ref) error {
	return c.snd.push(refs, false)
}
