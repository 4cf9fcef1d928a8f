// Package split holds a reservation whose push lives in a helper. The
// unmutated package is balanced; the engine's mutation test deletes the
// helper's push and requires the diagnostic at the caller's reserve.
package split

type Ref struct{}

type sendWindow struct{ charged int }

func (w *sendWindow) reserve(n int) error                 { return nil }
func (w *sendWindow) push(refs []Ref, charged bool) error { return nil }

// queue pushes the staged run on every path: its summary closes the
// window's bracket on behalf of its caller.
func queue(w *sendWindow, refs []Ref) {
	_ = w.push(refs, true) // mutation target
}

type conn struct{ snd *sendWindow }

// stage reserves on the connection's window, then queues through the
// helper.
func (c *conn) stage(refs []Ref, n int) error {
	if err := c.snd.reserve(n); err != nil { // MUT:leak
		return err
	}
	queue(c.snd, refs)
	return nil
}
