// Package split holds a pooled object whose Put lives in a clearing
// helper (the putTransferConfig shape). The unmutated package is
// leak-free; the engine's mutation test deletes the helper's Put and
// requires the caller-side diagnostics.
package split

import "sync"

type config struct{ n int }

var pool = sync.Pool{New: func() any { return new(config) }}

var sink int

// recycle clears and puts its argument on every path.
func recycle(c *config) {
	*c = config{}
	pool.Put(c) // mutation target
}

// transfer takes a config and recycles it through the helper on both the
// failure and the success path.
func transfer(fail bool) bool {
	c := pool.Get().(*config)
	if fail {
		recycle(c)
		return false // MUT:leak
	}
	sink += c.n
	recycle(c)
	return true // MUT:leak
}
