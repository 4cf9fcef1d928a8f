//go:build (linux || darwin) && !race

package wasm

import (
	"math"
	"syscall"
)

// reserve maps an address-space reservation of maxBytes for a linear memory
// and commits its first minBytes read-write. The rest is PROT_NONE and
// MAP_NORESERVE: it costs address space, not memory, until a grow commits
// it. It returns nil when the reservation cannot be made (a 32-bit address
// space, RLIMIT_AS), and the caller keeps the memory on the Go heap.
func reserve(minBytes, maxBytes uint64) []byte {
	if maxBytes == 0 || maxBytes > math.MaxInt {
		return nil
	}
	b := mapReservation(int(maxBytes))
	if b == nil {
		return nil
	}
	if err := commit(b, 0, int(minBytes)); err != nil {
		unmap(b)
		return nil
	}
	return b
}

// commit makes reserved[from:to] readable and writable. The pages were
// never touched, so they read zero, and they become resident only as the
// guest writes them.
func commit(reserved []byte, from, to int) error {
	if to <= from {
		return nil
	}
	return syscall.Mprotect(reserved[from:to], syscall.PROT_READ|syscall.PROT_WRITE)
}
