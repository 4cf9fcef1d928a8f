package wasm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// This file runs the register-form code compile.go produces: one dispatch
// loop over a function's instructions and the frame of the call. Values are
// raw 64-bit: i32 in the low 32 bits (upper bits zero), floats as IEEE bits.

// frame returns the recycled frame of the given call depth with room for
// size slots. An Instance keeps one per depth and executes one call tree at
// a time (callers serialize, as the shim's VM lock does), so a warm call
// reuses the frames its predecessors grew and allocates nothing.
func (inst *Instance) frame(depth, size int) []uint64 {
	for len(inst.frames) <= depth {
		inst.frames = append(inst.frames, nil)
	}
	if cap(inst.frames[depth]) < size {
		inst.frames[depth] = make([]uint64, size)
	}
	return inst.frames[depth][:size]
}

func (inst *Instance) call(fnIdx uint32, args []uint64) ([]uint64, error) {
	return inst.invoke(fnIdx, args, 0)
}

// invoke runs one function. The returned slice aliases the depth's recycled
// frame (or is the host function's own return): it is valid until the next
// call on this instance, which every caller respects by consuming results
// before calling again.
func (inst *Instance) invoke(fnIdx uint32, args []uint64, depth int) ([]uint64, error) {
	if depth > inst.maxDepth {
		return nil, TrapCallDepth
	}
	f := &inst.funcs[fnIdx]
	if f.host != nil {
		// Pass a frame-owned copy of args so the incoming slice does not
		// leak into the host call: it keeps callers' variadic argument
		// slices on their stacks.
		hargs := inst.frame(depth, len(args))
		copy(hargs, args)
		res, err := f.host.Fn(&inst.hostCtx, hargs)
		// The caller copies res over a result window sized from the
		// declared type.
		if err == nil && len(res) != len(f.typ.Results) {
			return nil, fmt.Errorf("host function returned %d values, declared %d: %w",
				len(res), len(f.typ.Results), ErrImportType)
		}
		return res, err
	}
	fr := inst.frame(depth, f.cf.frameSize)
	fr[0] = 0
	// Wasm locals beyond the parameters start at zero; a recycled frame
	// still holds the previous call's values.
	clear(fr[1+copy(fr[1:], args) : 1+f.cf.numLocals])
	if err := inst.exec(f.cf, fr, depth); err != nil {
		return nil, err
	}
	return f.cf.results(fr), nil
}

// cmp finishes an instruction of the compare family with outcome t: the
// boolean goes to its destination slot, or decides a jump when a br_if or
// an if was fused into the comparison. It returns the next pc.
func (in *instr) cmp(fr []uint64, pc int, t bool) int {
	switch {
	case in.br == 0:
		fr[in.d] = b2u(t)
	case t == (in.br == brIfTrue):
		return int(in.d)
	}
	return pc
}

// stop is why run handed control back to exec.
type stop byte

const (
	stopReturn      stop = iota
	stopOutOfLine        // code[pc-1] is for exec to carry out
	stopUnreachable      // the rest are traps
	stopOutOfBounds
	stopDivByZero
	stopIntegerOverflow
)

// exec runs one compiled function body on its frame. The results are left
// at the bottom of the frame's operand stack (compiledFunc.results).
//
// The work is split in two. run is the dispatch loop: it calls nothing, so
// the compiler keeps its state in registers, and it stops at whatever needs
// more than the frame, the globals and the memory bytes. exec carries that
// instruction out — a call, memory.grow, a bulk or floating-point operation,
// a trap's error — and resumes run. The memory's backing array is read anew
// on every resumption, and nothing run does can replace it, so a grow by
// this function, a callee or a host function is always seen.
func (inst *Instance) exec(cf *compiledFunc, fr []uint64, depth int) error {
	for pc := 0; ; {
		var mem []byte
		if inst.mem != nil {
			mem = inst.mem.data
		}
		var why stop
		pc, why = run(inst, cf, fr, mem, pc)
		in := &cf.code[pc-1]
		switch why {
		case stopReturn:
			return nil
		case stopOutOfLine:
			var err error
			if pc, err = inst.outOfLine(in, fr, pc, depth); err != nil {
				return err
			}
		case stopUnreachable:
			return TrapUnreachable
		case stopDivByZero:
			return TrapDivByZero
		case stopIntegerOverflow:
			return TrapIntegerOverflow
		default:
			ea := uint64(uint32(fr[in.a])) + fr[in.b] + in.imm
			if len(simpleSignatures[in.op].params) == 2 { // a store keeps its offset in d
				ea = uint64(uint32(fr[in.a])) + uint64(in.d)
			}
			return fmt.Errorf("memory access at %d of %d: %w", ea, len(mem), TrapOutOfBounds)
		}
	}
}

// outOfLine carries out the instruction run stopped at and returns the pc
// to resume from.
func (inst *Instance) outOfLine(in *instr, fr []uint64, pc, depth int) (int, error) {
	a, b := fr[in.a], fr[in.b]+in.imm
	switch in.op {
	case opCall, opCallIndirect:
		fi := uint32(in.imm)
		if in.op == opCallIndirect {
			if uint64(uint32(a)) >= uint64(len(inst.table)) || inst.table[uint32(a)] < 0 {
				return 0, TrapUndefinedElement
			}
			want := inst.module.Types[fi]
			if fi = uint32(inst.table[uint32(a)]); !inst.funcs[fi].typ.Equal(want) {
				return 0, TrapIndirectType
			}
		}
		// The arguments are passed in place: invoke copies them into the
		// callee's frame (or a host scratch) before anything can overwrite
		// them. The results come back into the same window.
		window := fr[in.d:]
		res, err := inst.invoke(fi, window[:in.imm>>32], depth+1)
		if err != nil {
			return 0, fmt.Errorf("call %s: %w", inst.funcName(fi), err)
		}
		copy(window, res)
	case opMoveN:
		copy(fr[in.d:], fr[in.a:][:in.imm])
	case opMemoryGrow:
		fr[in.d] = uint64(uint32(inst.mem.Grow(uint32(b))))
	case opMemoryCopySyn:
		w := fr[in.d:][:3] // dst, src, count
		return pc, inst.mem.copyWithin(uint64(uint32(w[0])), uint64(uint32(w[1])), uint64(uint32(w[2])))
	case opMemoryFillSyn:
		w := fr[in.d:][:3] // dst, value, count
		return pc, inst.mem.fill(uint64(uint32(w[0])), uint64(uint32(w[2])), byte(w[1]))
	default:
		v, err := numeric(in.op, a, b)
		if err != nil {
			return 0, err
		}
		if in.op >= opF32Eq && in.op <= opF64Ge {
			return in.cmp(fr, pc, v != 0), nil
		}
		fr[in.d] = v
	}
	return pc, nil
}

// run executes code from pc until an instruction needs exec: see there. It
// must not call anything that returns — a call would make the compiler
// spill the loop's state around every dispatch.
func run(inst *Instance, cf *compiledFunc, fr []uint64, mem []byte, pc int) (int, stop) {
	code := cf.code
	for {
		in := &code[pc]
		pc++
		a, b := fr[in.a], fr[in.b]+in.imm
		switch in.op {
		case opReturn:
			return pc, stopReturn
		case opUnreachable:
			return pc, stopUnreachable
		case opMov:
			fr[in.d] = b
		case opJmp:
			pc = int(in.d)
		case opBrTable:
			i := uint64(uint32(a))
			if i > in.imm {
				i = in.imm // the default follows the count listed targets
			}
			pc = int(cf.tbl[uint64(in.d)+i])
		case opSelect:
			if uint32(a) == 0 {
				fr[in.d] = b
			}
		case opGlobalGet:
			fr[in.d] = inst.globals[b]
		case opGlobalSet:
			inst.globals[in.d] = b

		// ---- memory: the effective address is a 64-bit sum, so base +
		// offset cannot wrap ----
		case opI32Load, opF32Load, opI64Load32U:
			ea := uint64(uint32(a)) + b
			if ea+4 > uint64(len(mem)) {
				return pc, stopOutOfBounds
			}
			fr[in.d] = uint64(binary.LittleEndian.Uint32(mem[ea:]))
		case opI64Load, opF64Load:
			ea := uint64(uint32(a)) + b
			if ea+8 > uint64(len(mem)) {
				return pc, stopOutOfBounds
			}
			fr[in.d] = binary.LittleEndian.Uint64(mem[ea:])
		case opI32Load8U, opI64Load8U:
			ea := uint64(uint32(a)) + b
			if ea >= uint64(len(mem)) {
				return pc, stopOutOfBounds
			}
			fr[in.d] = uint64(mem[ea])
		case opI32Load8S:
			ea := uint64(uint32(a)) + b
			if ea >= uint64(len(mem)) {
				return pc, stopOutOfBounds
			}
			fr[in.d] = uint64(uint32(int8(mem[ea])))
		case opI64Load8S:
			ea := uint64(uint32(a)) + b
			if ea >= uint64(len(mem)) {
				return pc, stopOutOfBounds
			}
			fr[in.d] = uint64(int8(mem[ea]))
		case opI32Load16U, opI64Load16U:
			ea := uint64(uint32(a)) + b
			if ea+2 > uint64(len(mem)) {
				return pc, stopOutOfBounds
			}
			fr[in.d] = uint64(binary.LittleEndian.Uint16(mem[ea:]))
		case opI32Load16S:
			ea := uint64(uint32(a)) + b
			if ea+2 > uint64(len(mem)) {
				return pc, stopOutOfBounds
			}
			fr[in.d] = uint64(uint32(int16(binary.LittleEndian.Uint16(mem[ea:]))))
		case opI64Load16S:
			ea := uint64(uint32(a)) + b
			if ea+2 > uint64(len(mem)) {
				return pc, stopOutOfBounds
			}
			fr[in.d] = uint64(int16(binary.LittleEndian.Uint16(mem[ea:])))
		case opI64Load32S:
			ea := uint64(uint32(a)) + b
			if ea+4 > uint64(len(mem)) {
				return pc, stopOutOfBounds
			}
			fr[in.d] = uint64(int32(binary.LittleEndian.Uint32(mem[ea:])))

		case opI32Store, opF32Store, opI64Store32:
			ea := uint64(uint32(a)) + uint64(in.d)
			if ea+4 > uint64(len(mem)) {
				return pc, stopOutOfBounds
			}
			binary.LittleEndian.PutUint32(mem[ea:], uint32(b))
		case opI64Store, opF64Store:
			ea := uint64(uint32(a)) + uint64(in.d)
			if ea+8 > uint64(len(mem)) {
				return pc, stopOutOfBounds
			}
			binary.LittleEndian.PutUint64(mem[ea:], b)
		case opI32Store8, opI64Store8:
			ea := uint64(uint32(a)) + uint64(in.d)
			if ea >= uint64(len(mem)) {
				return pc, stopOutOfBounds
			}
			mem[ea] = byte(b)
		case opI32Store16, opI64Store16:
			ea := uint64(uint32(a)) + uint64(in.d)
			if ea+2 > uint64(len(mem)) {
				return pc, stopOutOfBounds
			}
			binary.LittleEndian.PutUint16(mem[ea:], uint16(b))

		case opMemorySize:
			fr[in.d] = uint64(len(mem) / PageSize)

		// ---- compare family: see instr.cmp ----
		case opNez:
			pc = in.cmp(fr, pc, uint32(b) != 0)
		case opI32Eqz:
			pc = in.cmp(fr, pc, uint32(b) == 0)
		case opI32Eq:
			pc = in.cmp(fr, pc, uint32(a) == uint32(b))
		case opI32Ne:
			pc = in.cmp(fr, pc, uint32(a) != uint32(b))
		case opI32LtS:
			pc = in.cmp(fr, pc, int32(a) < int32(b))
		case opI32LtU:
			pc = in.cmp(fr, pc, uint32(a) < uint32(b))
		case opI32GtS:
			pc = in.cmp(fr, pc, int32(a) > int32(b))
		case opI32GtU:
			pc = in.cmp(fr, pc, uint32(a) > uint32(b))
		case opI32LeS:
			pc = in.cmp(fr, pc, int32(a) <= int32(b))
		case opI32LeU:
			pc = in.cmp(fr, pc, uint32(a) <= uint32(b))
		case opI32GeS:
			pc = in.cmp(fr, pc, int32(a) >= int32(b))
		case opI32GeU:
			pc = in.cmp(fr, pc, uint32(a) >= uint32(b))
		case opI64Eqz:
			pc = in.cmp(fr, pc, b == 0)
		case opI64Eq:
			pc = in.cmp(fr, pc, a == b)
		case opI64Ne:
			pc = in.cmp(fr, pc, a != b)
		case opI64LtS:
			pc = in.cmp(fr, pc, int64(a) < int64(b))
		case opI64LtU:
			pc = in.cmp(fr, pc, a < b)
		case opI64GtS:
			pc = in.cmp(fr, pc, int64(a) > int64(b))
		case opI64GtU:
			pc = in.cmp(fr, pc, a > b)
		case opI64LeS:
			pc = in.cmp(fr, pc, int64(a) <= int64(b))
		case opI64LeU:
			pc = in.cmp(fr, pc, a <= b)
		case opI64GeS:
			pc = in.cmp(fr, pc, int64(a) >= int64(b))
		case opI64GeU:
			pc = in.cmp(fr, pc, a >= b)

		// ---- i32 arithmetic ----
		case opI32Clz:
			fr[in.d] = uint64(bits.LeadingZeros32(uint32(b)))
		case opI32Ctz:
			fr[in.d] = uint64(bits.TrailingZeros32(uint32(b)))
		case opI32Add:
			fr[in.d] = uint64(uint32(a) + uint32(b))
		case opI32Sub:
			fr[in.d] = uint64(uint32(a) - uint32(b))
		case opI32Mul:
			fr[in.d] = uint64(uint32(a) * uint32(b))
		case opI32DivS:
			x, y := int32(a), int32(b)
			if y == 0 {
				return pc, stopDivByZero
			}
			if x == math.MinInt32 && y == -1 {
				return pc, stopIntegerOverflow
			}
			fr[in.d] = uint64(uint32(x / y))
		case opI32DivU:
			if uint32(b) == 0 {
				return pc, stopDivByZero
			}
			fr[in.d] = uint64(uint32(a) / uint32(b))
		case opI32RemS:
			x, y := int32(a), int32(b)
			if y == 0 {
				return pc, stopDivByZero
			}
			fr[in.d] = uint64(uint32(x % y)) // MinInt32 % -1 is 0 in Go as in Wasm
		case opI32RemU:
			if uint32(b) == 0 {
				return pc, stopDivByZero
			}
			fr[in.d] = uint64(uint32(a) % uint32(b))
		case opI32And:
			fr[in.d] = uint64(uint32(a) & uint32(b))
		case opI32Or:
			fr[in.d] = uint64(uint32(a) | uint32(b))
		case opI32Xor:
			fr[in.d] = uint64(uint32(a) ^ uint32(b))
		case opI32Shl:
			fr[in.d] = uint64(uint32(a) << (b & 31))
		case opI32ShrS:
			fr[in.d] = uint64(uint32(int32(a) >> (b & 31)))
		case opI32ShrU:
			fr[in.d] = uint64(uint32(a) >> (b & 31))
		case opI32Rotl:
			fr[in.d] = uint64(bits.RotateLeft32(uint32(a), int(b&31)))
		case opI32Rotr:
			fr[in.d] = uint64(bits.RotateLeft32(uint32(a), -int(b&31)))

		// ---- i64 arithmetic ----
		case opI64Clz:
			fr[in.d] = uint64(bits.LeadingZeros64(b))
		case opI64Ctz:
			fr[in.d] = uint64(bits.TrailingZeros64(b))
		case opI64Add:
			fr[in.d] = a + b
		case opI64Sub:
			fr[in.d] = a - b
		case opI64Mul:
			fr[in.d] = a * b
		case opI64DivS:
			x, y := int64(a), int64(b)
			if y == 0 {
				return pc, stopDivByZero
			}
			if x == math.MinInt64 && y == -1 {
				return pc, stopIntegerOverflow
			}
			fr[in.d] = uint64(x / y)
		case opI64DivU:
			if b == 0 {
				return pc, stopDivByZero
			}
			fr[in.d] = a / b
		case opI64RemS:
			x, y := int64(a), int64(b)
			if y == 0 {
				return pc, stopDivByZero
			}
			fr[in.d] = uint64(x % y)
		case opI64RemU:
			if b == 0 {
				return pc, stopDivByZero
			}
			fr[in.d] = a % b
		case opI64And:
			fr[in.d] = a & b
		case opI64Or:
			fr[in.d] = a | b
		case opI64Xor:
			fr[in.d] = a ^ b
		case opI64Shl:
			fr[in.d] = a << (b & 63)
		case opI64ShrS:
			fr[in.d] = uint64(int64(a) >> (b & 63))
		case opI64ShrU:
			fr[in.d] = a >> (b & 63)
		case opI64Rotl:
			fr[in.d] = bits.RotateLeft64(a, int(b&63))
		case opI64Rotr:
			fr[in.d] = bits.RotateLeft64(a, -int(b&63))

		// ---- integer width changes ----
		case opI32WrapI64, opI64ExtendI32U:
			fr[in.d] = uint64(uint32(b))
		case opI64ExtendI32S, opI64Extend32S:
			fr[in.d] = uint64(int64(int32(b)))
		case opI32Extend8S:
			fr[in.d] = uint64(uint32(int8(b)))
		case opI32Extend16S:
			fr[in.d] = uint64(uint32(int16(b)))
		case opI64Extend8S:
			fr[in.d] = uint64(int8(b))
		case opI64Extend16S:
			fr[in.d] = uint64(int16(b))

		default:
			return pc, stopOutOfLine
		}
	}
}

// numeric evaluates the instructions kept out of run that compute one value
// from a and b: floating point, the conversions, popcnt. A float comparison
// yields its boolean as 0 or 1. Besides calling into package math, several
// compile to a CPU-feature check (math.Floor, bits.OnesCount) that the
// compiler would hoist into run's loop head.
func numeric(op byte, a, b uint64) (uint64, error) {
	switch op {
	case opI32Popcnt:
		return uint64(bits.OnesCount32(uint32(b))), nil
	case opI64Popcnt:
		return uint64(bits.OnesCount64(b)), nil

	// ---- f32/f64 compare ----
	case opF32Eq:
		return b2u(f32(a) == f32(b)), nil
	case opF32Ne:
		return b2u(f32(a) != f32(b)), nil
	case opF32Lt:
		return b2u(f32(a) < f32(b)), nil
	case opF32Gt:
		return b2u(f32(a) > f32(b)), nil
	case opF32Le:
		return b2u(f32(a) <= f32(b)), nil
	case opF32Ge:
		return b2u(f32(a) >= f32(b)), nil
	case opF64Eq:
		return b2u(f64(a) == f64(b)), nil
	case opF64Ne:
		return b2u(f64(a) != f64(b)), nil
	case opF64Lt:
		return b2u(f64(a) < f64(b)), nil
	case opF64Gt:
		return b2u(f64(a) > f64(b)), nil
	case opF64Le:
		return b2u(f64(a) <= f64(b)), nil
	case opF64Ge:
		return b2u(f64(a) >= f64(b)), nil

	// ---- f32 arithmetic ----
	case opF32Abs:
		return uint64(uint32(b) &^ 0x8000_0000), nil
	case opF32Neg:
		return uint64(uint32(b) ^ 0x8000_0000), nil
	case opF32Ceil:
		return u32(float32(math.Ceil(float64(f32(b))))), nil
	case opF32Floor:
		return u32(float32(math.Floor(float64(f32(b))))), nil
	case opF32Trunc:
		return u32(float32(math.Trunc(float64(f32(b))))), nil
	case opF32Nearest:
		return u32(float32(math.RoundToEven(float64(f32(b))))), nil
	case opF32Sqrt:
		return u32(float32(math.Sqrt(float64(f32(b))))), nil
	case opF32Add:
		return u32(f32(a) + f32(b)), nil
	case opF32Sub:
		return u32(f32(a) - f32(b)), nil
	case opF32Mul:
		return u32(f32(a) * f32(b)), nil
	case opF32Div:
		return u32(f32(a) / f32(b)), nil
	case opF32Min:
		return u32(float32(math.Min(float64(f32(a)), float64(f32(b))))), nil
	case opF32Max:
		return u32(float32(math.Max(float64(f32(a)), float64(f32(b))))), nil
	case opF32Copysign:
		return uint64(uint32(a)&^0x8000_0000 | uint32(b)&0x8000_0000), nil

	// ---- f64 arithmetic ----
	case opF64Abs:
		return b &^ (1 << 63), nil
	case opF64Neg:
		return b ^ (1 << 63), nil
	case opF64Ceil:
		return math.Float64bits(math.Ceil(f64(b))), nil
	case opF64Floor:
		return math.Float64bits(math.Floor(f64(b))), nil
	case opF64Trunc:
		return math.Float64bits(math.Trunc(f64(b))), nil
	case opF64Nearest:
		return math.Float64bits(math.RoundToEven(f64(b))), nil
	case opF64Sqrt:
		return math.Float64bits(math.Sqrt(f64(b))), nil
	case opF64Add:
		return math.Float64bits(f64(a) + f64(b)), nil
	case opF64Sub:
		return math.Float64bits(f64(a) - f64(b)), nil
	case opF64Mul:
		return math.Float64bits(f64(a) * f64(b)), nil
	case opF64Div:
		return math.Float64bits(f64(a) / f64(b)), nil
	case opF64Min:
		return math.Float64bits(math.Min(f64(a), f64(b))), nil
	case opF64Max:
		return math.Float64bits(math.Max(f64(a), f64(b))), nil
	case opF64Copysign:
		return a&^(1<<63) | b&(1<<63), nil

	// ---- conversions ----
	case opI32TruncF32S, opI32TruncF32U, opI32TruncF64S, opI32TruncF64U,
		opI64TruncF32S, opI64TruncF32U, opI64TruncF64S, opI64TruncF64U:
		return truncate(op, b)
	case opF32ConvertI32S:
		return u32(float32(int32(b))), nil
	case opF32ConvertI32U:
		return u32(float32(uint32(b))), nil
	case opF32ConvertI64S:
		return u32(float32(int64(b))), nil
	case opF32ConvertI64U:
		return u32(float32(b)), nil
	case opF32DemoteF64:
		return u32(float32(f64(b))), nil
	case opF64ConvertI32S:
		return math.Float64bits(float64(int32(b))), nil
	case opF64ConvertI32U:
		return math.Float64bits(float64(uint32(b))), nil
	case opF64ConvertI64S:
		return math.Float64bits(float64(int64(b))), nil
	case opF64ConvertI64U:
		return math.Float64bits(float64(b)), nil
	case opF64PromoteF32:
		return math.Float64bits(float64(f32(b))), nil
	default:
		return 0, fmt.Errorf("exec opcode 0x%02x: %w", op, ErrUnsupported)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func f32(v uint64) float32 { return math.Float32frombits(uint32(v)) }
func f64(v uint64) float64 { return math.Float64frombits(v) }
func u32(f float32) uint64 { return uint64(math.Float32bits(f)) }

// truncate implements the eight trapping float-to-integer conversions: NaN
// is an invalid conversion, a truncated value outside the target range an
// integer overflow.
func truncate(op byte, v uint64) (uint64, error) {
	x := f64(v)
	switch op {
	case opI32TruncF32S, opI32TruncF32U, opI64TruncF32S, opI64TruncF32U:
		x = float64(f32(v))
	}
	if math.IsNaN(x) {
		return 0, TrapInvalidConv
	}
	x = math.Trunc(x)
	var ok bool
	switch op {
	case opI32TruncF32S, opI32TruncF64S:
		v, ok = uint64(uint32(int32(x))), x >= math.MinInt32 && x <= math.MaxInt32
	case opI32TruncF32U, opI32TruncF64U:
		v, ok = uint64(uint32(x)), x >= 0 && x <= math.MaxUint32
	case opI64TruncF32S, opI64TruncF64S:
		// 2^63 is exactly representable; MaxInt64 is not.
		v, ok = uint64(int64(x)), x >= math.MinInt64 && x < math.MaxInt64
	default:
		v, ok = uint64(x), x >= 0 && x < math.MaxUint64
	}
	if !ok {
		return 0, TrapIntegerOverflow
	}
	return v, nil
}
