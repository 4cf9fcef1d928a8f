//go:build !race && (amd64 || arm64)

package wasm

import (
	"syscall"
	"unsafe"
)

// hugePage is the size and alignment of an x86-64 or arm64 transparent huge
// page.
const hugePage = 2 << 20

// mapReservation maps n bytes PROT_NONE and MAP_NORESERVE at a 2 MiB-aligned
// address, or returns nil. It over-reserves by 2 MiB and unmaps what lies
// outside the aligned range, then advises the range MADV_HUGEPAGE, so every
// 2 MiB of it that a grow commits whole is backed by one huge page on first
// touch: one fault and one zeroing instead of 512. The advice fails with
// EINVAL on a kernel without transparent huge pages, and the reservation is
// just as good without it.
//
// The mapping is made with raw system calls because package syscall's Mmap
// records each mapping whole and Munmap accepts only that record, so it
// cannot trim one. The raw call is written for amd64 and arm64, whose
// SYS_MMAP takes its six arguments in registers; 386 and arm map with mmap2
// and s390x passes a pointer to the arguments, so every other port keeps
// memory_mmap_other.go.
func mapReservation(n int) []byte {
	size := uintptr(n) + hugePage
	addr, _, errno := syscall.Syscall6(syscall.SYS_MMAP, 0, size, syscall.PROT_NONE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE, ^uintptr(0), 0)
	if errno != 0 {
		return nil
	}
	start := (addr + hugePage - 1) &^ (hugePage - 1)
	end := start + uintptr(n)
	munmap(addr, start-addr)
	munmap(end, addr+size-end)
	// The address is the kernel's, outside the Go heap; vet's unsafeptr
	// check cannot tell it from a stale heap address, so it is added to nil
	// rather than converted.
	b := unsafe.Slice((*byte)(unsafe.Add(nil, start)), n)
	_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE)
	return b
}

func munmap(addr, n uintptr) {
	if n > 0 {
		_, _, _ = syscall.Syscall(syscall.SYS_MUNMAP, addr, n, 0)
	}
}

// unmap releases a reservation.
func unmap(reserved []byte) {
	munmap(uintptr(unsafe.Pointer(unsafe.SliceData(reserved))), uintptr(len(reserved)))
}
