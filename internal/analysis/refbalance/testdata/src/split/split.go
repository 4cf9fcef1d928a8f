// Package split holds a reference run whose release lives in a helper.
// The unmutated package is leak-free; the engine's mutation test deletes
// the helper's ReleaseAll and requires the caller-side diagnostics.
package split

type Ref struct{ pages int }

func (r Ref) Release() {}

func ReleaseAll(refs []Ref)   {}
func TotalLen(refs []Ref) int { return len(refs) }

type Ring struct{ refs []Ref }

func (r *Ring) Pop(max int) ([]Ref, error) { return nil, nil }

// drop releases the run on every path.
func drop(refs []Ref) {
	ReleaseAll(refs) // mutation target
}

// drain pops a run, measures it, and releases it through the helper on
// both the empty and the non-empty path.
func drain(ring *Ring, max int) (int, error) {
	refs, err := ring.Pop(max)
	if err != nil {
		return 0, err
	}
	if TotalLen(refs) == 0 {
		drop(refs)
		return 0, nil // MUT:leak
	}
	n := TotalLen(refs)
	drop(refs)
	return n, nil // MUT:leak
}
