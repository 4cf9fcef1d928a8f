package wasm

import (
	"errors"
	"fmt"
)

// LEB128 decoding errors.
var (
	errLEBTruncated = errors.New("wasm: truncated LEB128 value")
	errLEBTooLong   = errors.New("wasm: LEB128 value overflows target type")
)

// reader is a cursor over a byte slice with LEB128 helpers. All decoding in
// this package goes through it so bounds handling lives in one place.
type reader struct {
	data []byte
	pos  int
}

func (r *reader) len() int   { return len(r.data) - r.pos }
func (r *reader) done() bool { return r.pos >= len(r.data) }

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, errLEBTruncated
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, fmt.Errorf("wasm: need %d bytes, have %d", n, r.len())
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// vecLen decodes the element count of a vector. Every element takes at
// least one byte, so a count beyond the bytes that remain is malformed —
// checked here, before any caller sizes an allocation by it.
func (r *reader) vecLen() (uint32, error) {
	n, err := r.u32()
	if err == nil && int64(n) > int64(r.len()) {
		err = fmt.Errorf("vector of %d elements in %d bytes: %w", n, r.len(), ErrMalformed)
	}
	return n, err
}

// u32 decodes an unsigned LEB128 value of at most 32 bits.
func (r *reader) u32() (uint32, error) {
	var result uint64
	var shift uint
	for {
		b, err := r.byte()
		if err != nil {
			return 0, err
		}
		result |= uint64(b&0x7F) << shift
		if b&0x80 == 0 {
			break
		}
		shift += 7
		if shift >= 35 {
			return 0, errLEBTooLong
		}
	}
	if result > 0xFFFF_FFFF {
		return 0, errLEBTooLong
	}
	return uint32(result), nil
}

// u64 decodes an unsigned LEB128 value of at most 64 bits.
func (r *reader) u64() (uint64, error) {
	var result uint64
	var shift uint
	for {
		b, err := r.byte()
		if err != nil {
			return 0, err
		}
		result |= uint64(b&0x7F) << shift
		if b&0x80 == 0 {
			break
		}
		shift += 7
		if shift >= 70 {
			return 0, errLEBTooLong
		}
	}
	return result, nil
}

// s32 decodes a signed LEB128 value of at most 32 bits.
func (r *reader) s32() (int32, error) {
	v, err := r.sleb(32)
	return int32(v), err
}

// s64 decodes a signed LEB128 value of at most 64 bits.
func (r *reader) s64() (int64, error) {
	return r.sleb(64)
}

// s33 decodes the signed 33-bit value used by block types.
func (r *reader) s33() (int64, error) {
	return r.sleb(33)
}

func (r *reader) sleb(bits uint) (int64, error) {
	var result int64
	var shift uint
	for {
		b, err := r.byte()
		if err != nil {
			return 0, err
		}
		result |= int64(b&0x7F) << shift
		shift += 7
		if b&0x80 == 0 {
			// Sign-extend from the last group.
			if shift < 64 && b&0x40 != 0 {
				result |= -1 << shift
			}
			return result, nil
		}
		if shift >= bits+7 {
			return 0, errLEBTooLong
		}
	}
}

// name decodes a length-prefixed UTF-8 name.
func (r *reader) name() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// AppendUleb128 appends the unsigned LEB128 encoding of v to dst. Exported
// for the module assembler (internal/wasmbuild).
func AppendUleb128(dst []byte, v uint64) []byte {
	for {
		b := byte(v & 0x7F)
		v >>= 7
		if v != 0 {
			b |= 0x80
		}
		dst = append(dst, b)
		if v == 0 {
			return dst
		}
	}
}

// AppendSleb128 appends the signed LEB128 encoding of v to dst.
func AppendSleb128(dst []byte, v int64) []byte {
	for {
		b := byte(v & 0x7F)
		v >>= 7
		if (v == 0 && b&0x40 == 0) || (v == -1 && b&0x40 != 0) {
			return append(dst, b)
		}
		dst = append(dst, b|0x80)
	}
}
