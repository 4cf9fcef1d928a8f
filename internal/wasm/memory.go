package wasm

import (
	"fmt"
	"sync/atomic"
)

// Memory is a WebAssembly linear memory: a contiguous, byte-addressable
// array that can grow in 64 KiB pages (§2.1 "Linear Memory"). The host-side
// View/ReadAt/WriteAt accessors are the primitive Roadrunner's shim uses to
// reach guest data through (pointer, length) pairs without copies — every
// access is bounds-checked so the sandbox boundary holds (§3.1, §7
// "Security Concerns").
//
// A memory lives on the Go heap (NewMemory), where a grow allocates the new
// size and copies, or in an address-space reservation of its maximum size
// outside the Go heap (a memory of InstantiateMapped), where a grow commits
// the next pages in place. Either way data is exactly the committed size,
// so every bounds check stops there.
type Memory struct {
	data     []byte
	maxPages uint32
	// reserved is the whole reservation data is carved from, nil on the
	// heap backing. It is released by release, never by the GC.
	reserved []byte
	// onResize, when set, observes allocation deltas in bytes (wired to
	// the owning sandbox's metrics.Account).
	onResize func(delta int64)
}

// NewMemory allocates a linear memory with the given limits on the Go heap.
func NewMemory(lim Limits) *Memory {
	return &Memory{data: make([]byte, int(lim.Min)*PageSize), maxPages: lim.maxPages()}
}

// newMappedMemory reserves a linear memory of the limits' maximum size
// outside the Go heap, falling back to NewMemory when the platform, the
// build or the address space does not allow the reservation.
func newMappedMemory(lim Limits) *Memory {
	maxPages := lim.maxPages()
	reserved := reserve(uint64(lim.Min)*PageSize, uint64(maxPages)*PageSize)
	if reserved == nil {
		return NewMemory(lim)
	}
	liveMappings.Add(1)
	n := int(lim.Min) * PageSize
	return &Memory{data: reserved[:n:n], maxPages: maxPages, reserved: reserved}
}

// liveMappings counts the reservations not yet released.
var liveMappings atomic.Int64

// LiveMappings reports how many mapped linear memories have not been
// released by Instance.Close. Test suites that create instances through
// InstantiateMapped check that it is back to zero once every test is done.
func LiveMappings() int64 { return liveMappings.Load() }

// maxPages is the most pages a memory of these limits may hold: the
// declared maximum, or the whole 4 GiB wasm32 space.
func (lim Limits) maxPages() uint32 {
	if lim.HasMax && lim.Max < 65536 {
		return lim.Max
	}
	return 65536
}

// release unmaps a mapped memory and leaves it empty with a zero maximum, so
// a later access traps out of bounds and a later grow fails. It does nothing
// on the heap backing, which the GC frees.
func (m *Memory) release() {
	if m.reserved == nil {
		return
	}
	unmap(m.reserved)
	liveMappings.Add(-1)
	m.reserved, m.data, m.maxPages = nil, nil, 0
}

// SetResizeHook registers a callback observing memory allocation deltas.
func (m *Memory) SetResizeHook(fn func(delta int64)) {
	m.onResize = fn
	if fn != nil && len(m.data) > 0 {
		fn(int64(len(m.data)))
	}
}

// Size returns the current memory size in bytes.
func (m *Memory) Size() int { return len(m.data) }

// Pages returns the current memory size in 64 KiB pages.
func (m *Memory) Pages() uint32 { return uint32(len(m.data) / PageSize) }

// Grow adds delta pages, returning the previous page count, or -1 when the
// limit would be exceeded or the pages cannot be committed (the memory.grow
// semantics). A mapped memory commits the pages in place, O(delta); a heap
// memory allocates the new size and copies.
func (m *Memory) Grow(delta uint32) int32 {
	prev := m.Pages()
	if uint64(prev)+uint64(delta) > uint64(m.maxPages) {
		return -1
	}
	if delta > 0 {
		n := (int(prev) + int(delta)) * PageSize
		if m.reserved != nil {
			if err := commit(m.reserved, len(m.data), n); err != nil {
				return -1
			}
			m.data = m.reserved[:n:n]
		} else {
			grown := make([]byte, n)
			copy(grown, m.data)
			m.data = grown
		}
		if m.onResize != nil {
			m.onResize(int64(delta) * PageSize)
		}
	}
	return int32(prev)
}

// View returns the byte range [ptr, ptr+n) of linear memory without copying.
// This is the host half of the paper's direct data access (read_memory_host):
// the returned slice aliases guest memory, so it is valid only until the
// guest runs again. The bounds check enforces the sandbox boundary.
func (m *Memory) View(ptr, n uint32) ([]byte, error) {
	if err := m.check(ptr, n); err != nil {
		return nil, err
	}
	end := uint64(ptr) + uint64(n) // in 32 bits it wraps at the 4 GiB end
	return m.data[ptr:end:end], nil
}

// ReadAt copies guest memory [ptr, ptr+len(dst)) into dst.
func (m *Memory) ReadAt(dst []byte, ptr uint32) error {
	if err := m.check(ptr, uint32(len(dst))); err != nil {
		return err
	}
	copy(dst, m.data[ptr:])
	return nil
}

// WriteAt copies src into guest memory at ptr (write_memory_host).
func (m *Memory) WriteAt(src []byte, ptr uint32) error {
	if err := m.check(ptr, uint32(len(src))); err != nil {
		return err
	}
	copy(m.data[ptr:], src)
	return nil
}

func (m *Memory) check(ptr, n uint32) error {
	if uint64(ptr)+uint64(n) > uint64(len(m.data)) {
		return fmt.Errorf("memory access [%d,+%d) of %d bytes: %w", ptr, n, len(m.data), TrapOutOfBounds)
	}
	return nil
}

// copyWithin implements memory.copy (overlap-safe).
func (m *Memory) copyWithin(dst, src, n uint64) error {
	if dst+n > uint64(len(m.data)) || src+n > uint64(len(m.data)) {
		return fmt.Errorf("memory.copy dst=%d src=%d n=%d of %d: %w", dst, src, n, len(m.data), TrapOutOfBounds)
	}
	copy(m.data[dst:dst+n], m.data[src:src+n])
	return nil
}

// fill implements memory.fill.
func (m *Memory) fill(dst, n uint64, v byte) error {
	if dst+n > uint64(len(m.data)) {
		return fmt.Errorf("memory.fill dst=%d n=%d of %d: %w", dst, n, len(m.data), TrapOutOfBounds)
	}
	region := m.data[dst : dst+n]
	for i := range region {
		region[i] = v
	}
	return nil
}
