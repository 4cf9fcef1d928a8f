//go:build !race && (darwin || (linux && !(amd64 || arm64)))

package wasm

import "syscall"

// mapReservation maps n bytes PROT_NONE and MAP_NORESERVE, or returns nil.
// macOS and the Linux architectures other than amd64 and arm64 take the
// mapping as it comes, with no huge-page alignment or advice.
func mapReservation(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_NONE, syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return nil
	}
	return b
}

// unmap releases a reservation.
func unmap(reserved []byte) { _ = syscall.Munmap(reserved) }
