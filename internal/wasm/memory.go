package wasm

import "fmt"

// Memory is a WebAssembly linear memory: a contiguous, byte-addressable
// array that can grow in 64 KiB pages (§2.1 "Linear Memory"). The host-side
// View/ReadAt/WriteAt accessors are the primitive Roadrunner's shim uses to
// reach guest data through (pointer, length) pairs without copies — every
// access is bounds-checked so the sandbox boundary holds (§3.1, §7
// "Security Concerns").
type Memory struct {
	data     []byte
	maxPages uint32
	// onResize, when set, observes allocation deltas in bytes (wired to
	// the owning sandbox's metrics.Account).
	onResize func(delta int64)
}

// NewMemory allocates a linear memory with the given limits.
func NewMemory(lim Limits) *Memory {
	maxPages := uint32(65536)
	if lim.HasMax && lim.Max < maxPages {
		maxPages = lim.Max
	}
	m := &Memory{data: make([]byte, int(lim.Min)*PageSize), maxPages: maxPages}
	return m
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
// limit would be exceeded (the memory.grow semantics).
func (m *Memory) Grow(delta uint32) int32 {
	prev := m.Pages()
	if uint64(prev)+uint64(delta) > uint64(m.maxPages) {
		return -1
	}
	if delta > 0 {
		grown := make([]byte, (int(prev)+int(delta))*PageSize)
		copy(grown, m.data)
		m.data = grown
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
	return m.data[ptr : ptr+n : ptr+n], nil
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
