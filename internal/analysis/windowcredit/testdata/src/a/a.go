// Package a exercises the windowcredit analyzer: a stub of the kernel's
// sendWindow and its one production user (conn.writeCopy), plus the leak
// the gate exists for — a reservation that returns before its push.
package a

import "errors"

type Ref struct{}

type sendWindow struct{ charged int }

// reserve and push as the kernel's window declares them (minus the pool):
// reserve hands out the segment it charged and carries the caller's held
// relay block through; its error ends the write.
func (w *sendWindow) reserve(held []Ref, b []byte) ([]byte, []Ref, error) { return b, held, nil }
func (w *sendWindow) push(refs []Ref, charged bool) error                 { return nil }

type conn struct{ snd, rcv *sendWindow }

func copyInto(refs []Ref, b []byte) []Ref { return refs }

func release(refs []Ref) {}

func tail(part, whole []byte) bool { return len(part) == len(whole) }

var errTooBig = errors.New("segment too big")

// writeCopy is the production shape, verbatim: per segment, reserve (a
// failed reserve holds no credit and has ended the write), copy, push —
// whose failure still queued nothing but has settled the bracket with the
// window, and is reported by the next reserve. No diagnostic.
func (c *conn) writeCopy(refs []Ref, b []byte) (int, []Ref, error) {
	w := c.snd
	var block [1]Ref
	held, unqueued := block[:0], 0
	var chunk []byte
	var err error
	for src := b; ; src = nil {
		if chunk, held, err = w.reserve(held, src); err != nil {
			release(held)
			return len(b) - len(chunk) - unqueued, refs, err
		}
		refs = copyInto(refs[:0], chunk)
		if w.push(refs, true) != nil {
			unqueued = len(chunk)
		} else if tail(chunk, b) {
			release(held)
			return len(b), refs, nil
		}
	}
}

// earlyReturn reserves, then bails before the push: the window stays
// charged for bytes no reader will ever consume.
func (c *conn) earlyReturn(refs []Ref, b []byte) error {
	chunk, _, err := c.snd.reserve(nil, b) // want `c\.snd\.reserve\(\) is not followed by a push on every path`
	if err != nil {
		return err
	}
	if len(chunk) > 1<<16 {
		return errTooBig
	}
	return c.snd.push(copyInto(refs, chunk), true)
}

// wrongWindow pushes on the peer's window: the bracket is keyed on the
// receiver, so the reservation on snd stays open.
func (c *conn) wrongWindow(refs []Ref, b []byte) error {
	_, _, err := c.snd.reserve(nil, b) // want `c\.snd\.reserve\(\) is not followed by a push`
	if err != nil {
		return err
	}
	return c.rcv.push(refs, true)
}

// lentRefs queues references without reserving (the Splice/Tee path): a
// push alone opens nothing. No diagnostic.
func (c *conn) lentRefs(refs []Ref) error {
	return c.snd.push(refs, false)
}
