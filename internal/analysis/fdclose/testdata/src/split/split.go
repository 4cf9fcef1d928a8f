// Package split holds a descriptor pair whose close lives in a helper.
// The unmutated package is leak-free; the engine's mutation test deletes
// the helper's first Close and requires the caller-side diagnostics.
package split

type Proc struct{}

func (p *Proc) Pipe() (int, int)                    { return 0, 1 }
func (p *Proc) Close(fd int) error                  { return nil }
func (p *Proc) Write(fd int, b []byte) (int, error) { return len(b), nil }

// closePipe closes both ends on every path.
func closePipe(p *Proc, r, w int) {
	_ = p.Close(r) // mutation target
	_ = p.Close(w)
}

// relay opens a per-call pipe and closes it through the helper on both
// the failure and the success path.
func relay(p *Proc, b []byte) error {
	r, w := p.Pipe()
	if _, err := p.Write(w, b); err != nil {
		closePipe(p, r, w)
		return err // MUT:leak
	}
	closePipe(p, r, w)
	return nil // MUT:leak
}
