//go:build !(linux || darwin) || race

package wasm

// reserve keeps linear memory on the Go heap. Platforms without mprotect in
// package syscall have no other backing, and race builds keep the heap on
// purpose: the race detector does not see accesses to memory mapped outside
// the Go heap, and linear memory is what the VM locks guard.
func reserve(minBytes, maxBytes uint64) []byte { return nil }

func commit(reserved []byte, from, to int) error { return nil }

func unmap(reserved []byte) {}
