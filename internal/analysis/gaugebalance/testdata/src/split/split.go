// Package split holds a gauge bracket whose Exit lives in a helper. The
// unmutated package is balanced; the engine's mutation test deletes the
// helper's Exit and requires the diagnostic at the caller's Enter.
package split

type State struct{}

func (st *State) Enter(i int) {}
func (st *State) Exit(i int)  {}

type fn struct {
	route *State
	index int
}

func produce(f *fn) (uint32, error) { return 0, nil }

// finish moves the gauge down on all paths: calling it counts as the
// caller's Exit.
func finish(st *State, i int) {
	st.Exit(i) // mutation target
}

// invoke brackets the produce and closes through the helper before the
// error branch.
func invoke(f *fn) (uint32, error) {
	f.route.Enter(f.index) // MUT:leak
	out, err := produce(f)
	finish(f.route, f.index)
	if err != nil {
		return 0, err
	}
	return out, nil
}
