package wasm

import (
	"errors"
	"fmt"
)

// ErrInvalidModule wraps static-validation failures: a module that decodes
// structurally but whose function bodies violate the WebAssembly type
// discipline. Catching these at load time (rather than trapping mid-run)
// matches production runtime behaviour and keeps the interpreter's
// assumptions sound.
var ErrInvalidModule = errors.New("wasm: validation failed")

// unknownType is the polymorphic stack slot produced in unreachable code.
const unknownType ValType = 0

// ctrlFrame is one entry of the validator's control stack, following the
// validation algorithm of the spec appendix.
type ctrlFrame struct {
	opcode      byte // opBlock / opLoop / opIf / 0 for the function frame
	startTypes  []ValType
	endTypes    []ValType
	height      int
	unreachable bool
}

// labelTypes is the type vector a branch to this frame carries: the start
// types for loops, the end types otherwise.
func (f *ctrlFrame) labelTypes() []ValType {
	if f.opcode == opLoop {
		return f.startTypes
	}
	return f.endTypes
}

// validator checks one function body.
type validator struct {
	m      *Module
	stack  []ValType
	ctrls  []ctrlFrame
	locals []ValType
}

func (v *validator) pushVal(t ValType) {
	v.stack = append(v.stack, t)
}

func (v *validator) popVal() (ValType, error) {
	frame := &v.ctrls[len(v.ctrls)-1]
	if len(v.stack) == frame.height {
		if frame.unreachable {
			return unknownType, nil
		}
		return 0, fmt.Errorf("operand stack underflow: %w", ErrInvalidModule)
	}
	t := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	return t, nil
}

func (v *validator) popExpect(want ValType) error {
	got, err := v.popVal()
	if err != nil {
		return err
	}
	if got != want && got != unknownType && want != unknownType {
		return fmt.Errorf("expected %v, found %v: %w", want, got, ErrInvalidModule)
	}
	return nil
}

func (v *validator) popVals(types []ValType) error {
	for i := len(types) - 1; i >= 0; i-- {
		if err := v.popExpect(types[i]); err != nil {
			return err
		}
	}
	return nil
}

func (v *validator) pushVals(types []ValType) {
	for _, t := range types {
		v.pushVal(t)
	}
}

func (v *validator) pushCtrl(opcode byte, start, end []ValType) {
	v.ctrls = append(v.ctrls, ctrlFrame{
		opcode:     opcode,
		startTypes: start,
		endTypes:   end,
		height:     len(v.stack),
	})
	v.pushVals(start)
}

func (v *validator) popCtrl() (ctrlFrame, error) {
	if len(v.ctrls) == 0 {
		return ctrlFrame{}, fmt.Errorf("control stack underflow: %w", ErrInvalidModule)
	}
	frame := v.ctrls[len(v.ctrls)-1]
	if err := v.popVals(frame.endTypes); err != nil {
		return ctrlFrame{}, err
	}
	if len(v.stack) != frame.height {
		return ctrlFrame{}, fmt.Errorf("%d leftover operands at block end: %w", len(v.stack)-frame.height, ErrInvalidModule)
	}
	v.ctrls = v.ctrls[:len(v.ctrls)-1]
	return frame, nil
}

// setUnreachable marks the current frame unreachable and resets the stack to
// its height (the spec's stack-polymorphic behaviour).
func (v *validator) setUnreachable() {
	frame := &v.ctrls[len(v.ctrls)-1]
	v.stack = v.stack[:frame.height]
	frame.unreachable = true
}

func (v *validator) frameAt(depth uint32) (*ctrlFrame, error) {
	if int(depth) >= len(v.ctrls) {
		return nil, fmt.Errorf("branch depth %d exceeds %d labels: %w", depth, len(v.ctrls), ErrInvalidModule)
	}
	return &v.ctrls[len(v.ctrls)-1-int(depth)], nil
}

// blockTypes resolves a block type to its parameter/result vectors.
func (v *validator) blockTypes(bt int64) (params, results []ValType, err error) {
	switch {
	case bt == -64:
		return nil, nil, nil
	case bt == -1:
		return nil, []ValType{I32}, nil
	case bt == -2:
		return nil, []ValType{I64}, nil
	case bt == -3:
		return nil, []ValType{F32}, nil
	case bt == -4:
		return nil, []ValType{F64}, nil
	case bt >= 0 && int(bt) < len(v.m.Types):
		ft := v.m.Types[bt]
		return ft.Params, ft.Results, nil
	default:
		return nil, nil, fmt.Errorf("block type %d: %w", bt, ErrInvalidModule)
	}
}

// validateFunc type-checks one function body against the spec's validation
// algorithm.
func validateFunc(m *Module, fnIdx int) error {
	code := m.Codes[fnIdx]
	ft := m.Types[m.FuncTypes[fnIdx]]
	v := &validator{m: m}
	v.locals = append(v.locals, ft.Params...)
	v.locals = append(v.locals, code.Locals...)
	v.pushCtrl(0, nil, ft.Results)

	r := &reader{data: code.Body}
	hasMemory := m.Memory != nil || hasMemoryImport(m)
	globalTypes, globalMut := moduleGlobals(m)

	for !r.done() {
		op, err := r.byte()
		if err != nil {
			return err
		}
		if len(v.ctrls) == 0 {
			return fmt.Errorf("code after function end: %w", ErrInvalidModule)
		}
		if err := v.step(op, r, hasMemory, globalTypes, globalMut); err != nil {
			return fmt.Errorf("func %d offset %d opcode 0x%02x: %w", fnIdx, r.pos, op, err)
		}
	}
	if len(v.ctrls) != 0 {
		return fmt.Errorf("func %d: %d unterminated blocks: %w", fnIdx, len(v.ctrls), ErrInvalidModule)
	}
	return nil
}

func moduleGlobals(m *Module) ([]ValType, []bool) {
	var types []ValType
	var mut []bool
	for _, imp := range m.Imports {
		if imp.Kind == ExternGlobal {
			types = append(types, imp.GlobalType)
			mut = append(mut, imp.GlobalMutable)
		}
	}
	for _, g := range m.Globals {
		types = append(types, g.Type)
		mut = append(mut, g.Mutable)
	}
	return types, mut
}

// step validates one instruction.
func (v *validator) step(op byte, r *reader, hasMemory bool, globalTypes []ValType, globalMut []bool) error {
	switch op {
	case opUnreachable:
		v.setUnreachable()
	case opNop:

	case opBlock, opLoop:
		bt, err := r.s33()
		if err != nil {
			return err
		}
		params, results, err := v.blockTypes(bt)
		if err != nil {
			return err
		}
		if err := v.popVals(params); err != nil {
			return err
		}
		v.pushCtrl(op, params, results)
	case opIf:
		bt, err := r.s33()
		if err != nil {
			return err
		}
		params, results, err := v.blockTypes(bt)
		if err != nil {
			return err
		}
		if err := v.popExpect(I32); err != nil {
			return err
		}
		if err := v.popVals(params); err != nil {
			return err
		}
		v.pushCtrl(opIf, params, results)
	case opElse:
		frame, err := v.popCtrl()
		if err != nil {
			return err
		}
		if frame.opcode != opIf {
			return fmt.Errorf("else outside if: %w", ErrInvalidModule)
		}
		v.pushCtrl(opElse, frame.startTypes, frame.endTypes)
	case opEnd:
		frame, err := v.popCtrl()
		if err != nil {
			return err
		}
		// An if without else must have matching param/result types, since
		// the implicit else passes parameters through.
		if frame.opcode == opIf && !typesEqual(frame.startTypes, frame.endTypes) {
			return fmt.Errorf("if without else must not change types: %w", ErrInvalidModule)
		}
		v.pushVals(frame.endTypes)

	case opBr:
		d, err := r.u32()
		if err != nil {
			return err
		}
		frame, err := v.frameAt(d)
		if err != nil {
			return err
		}
		if err := v.popVals(frame.labelTypes()); err != nil {
			return err
		}
		v.setUnreachable()
	case opBrIf:
		d, err := r.u32()
		if err != nil {
			return err
		}
		frame, err := v.frameAt(d)
		if err != nil {
			return err
		}
		if err := v.popExpect(I32); err != nil {
			return err
		}
		lt := frame.labelTypes()
		if err := v.popVals(lt); err != nil {
			return err
		}
		v.pushVals(lt)
	case opBrTable:
		n, err := r.vecLen()
		if err != nil {
			return err
		}
		depths := make([]uint32, 0, n)
		for i := uint32(0); i < n; i++ {
			d, err := r.u32()
			if err != nil {
				return err
			}
			depths = append(depths, d)
		}
		def, err := r.u32()
		if err != nil {
			return err
		}
		defFrame, err := v.frameAt(def)
		if err != nil {
			return err
		}
		want := defFrame.labelTypes()
		for _, d := range depths {
			f, err := v.frameAt(d)
			if err != nil {
				return err
			}
			if !typesEqual(f.labelTypes(), want) {
				return fmt.Errorf("br_table arms disagree on types: %w", ErrInvalidModule)
			}
		}
		if err := v.popExpect(I32); err != nil {
			return err
		}
		if err := v.popVals(want); err != nil {
			return err
		}
		v.setUnreachable()
	case opReturn:
		if err := v.popVals(v.ctrls[0].endTypes); err != nil {
			return err
		}
		v.setUnreachable()

	case opCall:
		fi, err := r.u32()
		if err != nil {
			return err
		}
		ft, err := v.m.FuncType(fi)
		if err != nil {
			return fmt.Errorf("%v: %w", err, ErrInvalidModule)
		}
		if err := v.popVals(ft.Params); err != nil {
			return err
		}
		v.pushVals(ft.Results)
	case opCallIndirect:
		ti, err := r.u32()
		if err != nil {
			return err
		}
		if _, err := r.byte(); err != nil {
			return err
		}
		if int(ti) >= len(v.m.Types) {
			return fmt.Errorf("call_indirect type %d: %w", ti, ErrInvalidModule)
		}
		if v.m.Table == nil {
			return fmt.Errorf("call_indirect without table: %w", ErrInvalidModule)
		}
		if err := v.popExpect(I32); err != nil {
			return err
		}
		ft := v.m.Types[ti]
		if err := v.popVals(ft.Params); err != nil {
			return err
		}
		v.pushVals(ft.Results)

	case opDrop:
		_, err := v.popVal()
		return err
	case opSelect:
		if err := v.popExpect(I32); err != nil {
			return err
		}
		t1, err := v.popVal()
		if err != nil {
			return err
		}
		t2, err := v.popVal()
		if err != nil {
			return err
		}
		if t1 != t2 && t1 != unknownType && t2 != unknownType {
			return fmt.Errorf("select operands %v vs %v: %w", t1, t2, ErrInvalidModule)
		}
		if t1 == unknownType {
			t1 = t2
		}
		v.pushVal(t1)

	case opLocalGet, opLocalSet, opLocalTee:
		idx, err := r.u32()
		if err != nil {
			return err
		}
		if int(idx) >= len(v.locals) {
			return fmt.Errorf("local %d of %d: %w", idx, len(v.locals), ErrInvalidModule)
		}
		t := v.locals[idx]
		switch op {
		case opLocalGet:
			v.pushVal(t)
		case opLocalSet:
			return v.popExpect(t)
		case opLocalTee:
			if err := v.popExpect(t); err != nil {
				return err
			}
			v.pushVal(t)
		}
	case opGlobalGet, opGlobalSet:
		idx, err := r.u32()
		if err != nil {
			return err
		}
		if int(idx) >= len(globalTypes) {
			return fmt.Errorf("global %d of %d: %w", idx, len(globalTypes), ErrInvalidModule)
		}
		if op == opGlobalGet {
			v.pushVal(globalTypes[idx])
		} else {
			if !globalMut[idx] {
				return fmt.Errorf("global.set on immutable global %d: %w", idx, ErrInvalidModule)
			}
			return v.popExpect(globalTypes[idx])
		}

	case opI32Const:
		if _, err := r.s32(); err != nil {
			return err
		}
		v.pushVal(I32)
	case opI64Const:
		if _, err := r.s64(); err != nil {
			return err
		}
		v.pushVal(I64)
	case opF32Const:
		if _, err := r.bytes(4); err != nil {
			return err
		}
		v.pushVal(F32)
	case opF64Const:
		if _, err := r.bytes(8); err != nil {
			return err
		}
		v.pushVal(F64)

	case opMemorySize:
		if _, err := r.byte(); err != nil {
			return err
		}
		if !hasMemory {
			return fmt.Errorf("memory.size without memory: %w", ErrInvalidModule)
		}
		v.pushVal(I32)
	case opMemoryGrow:
		if _, err := r.byte(); err != nil {
			return err
		}
		if !hasMemory {
			return fmt.Errorf("memory.grow without memory: %w", ErrInvalidModule)
		}
		if err := v.popExpect(I32); err != nil {
			return err
		}
		v.pushVal(I32)

	case opPrefixFC:
		sub, err := r.u32()
		if err != nil {
			return err
		}
		switch sub {
		case 10:
			if _, err := r.bytes(2); err != nil {
				return err
			}
		case 11:
			if _, err := r.byte(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("0xFC %d: %w", sub, ErrUnsupported)
		}
		if !hasMemory {
			return fmt.Errorf("bulk memory op without memory: %w", ErrInvalidModule)
		}
		// copy: (dst i32, src i32, n i32); fill: (dst i32, val i32, n i32).
		return v.popVals([]ValType{I32, I32, I32})

	default:
		sig := &simpleSignatures[op]
		if sig.params == nil {
			return fmt.Errorf("opcode 0x%02x: %w", op, ErrUnsupported)
		}
		if sig.mem {
			// memarg: align + offset.
			if _, err := r.u32(); err != nil {
				return err
			}
			if _, err := r.u32(); err != nil {
				return err
			}
			if !hasMemory {
				return fmt.Errorf("memory access without memory: %w", ErrInvalidModule)
			}
		}
		if err := v.popVals(sig.params); err != nil {
			return err
		}
		v.pushVals(sig.results)
	}
	return nil
}

func typesEqual(a, b []ValType) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// simpleSig is a fixed stack signature.
type simpleSig struct {
	params  []ValType
	results []ValType
	mem     bool
}

// simpleSignatures covers every opcode with a fixed signature (loads,
// stores, comparisons, arithmetic, conversions), indexed by opcode; they all
// take operands, so an entry without params is no such opcode. The lowerer
// reads each one's operand shape off the same table.
var simpleSignatures = buildSimpleSignatures()

func buildSimpleSignatures() (sigs [256]simpleSig) {
	load := func(op byte, t ValType) {
		sigs[op] = simpleSig{params: []ValType{I32}, results: []ValType{t}, mem: true}
	}
	store := func(op byte, t ValType) { sigs[op] = simpleSig{params: []ValType{I32, t}, mem: true} }
	un := func(op byte, in, out ValType) { sigs[op] = simpleSig{params: []ValType{in}, results: []ValType{out}} }
	bin := func(op byte, in, out ValType) {
		sigs[op] = simpleSig{params: []ValType{in, in}, results: []ValType{out}}
	}

	load(opI32Load, I32)
	load(opI64Load, I64)
	load(opF32Load, F32)
	load(opF64Load, F64)
	for _, op := range []byte{opI32Load8S, opI32Load8U, opI32Load16S, opI32Load16U} {
		load(op, I32)
	}
	for _, op := range []byte{opI64Load8S, opI64Load8U, opI64Load16S, opI64Load16U, opI64Load32S, opI64Load32U} {
		load(op, I64)
	}
	store(opI32Store, I32)
	store(opI64Store, I64)
	store(opF32Store, F32)
	store(opF64Store, F64)
	store(opI32Store8, I32)
	store(opI32Store16, I32)
	store(opI64Store8, I64)
	store(opI64Store16, I64)
	store(opI64Store32, I64)

	un(opI32Eqz, I32, I32)
	for op := opI32Eq; op <= opI32GeU; op++ {
		bin(byte(op), I32, I32)
	}
	un(opI64Eqz, I64, I32)
	for op := opI64Eq; op <= opI64GeU; op++ {
		bin(byte(op), I64, I32)
	}
	for op := opF32Eq; op <= opF32Ge; op++ {
		bin(byte(op), F32, I32)
	}
	for op := opF64Eq; op <= opF64Ge; op++ {
		bin(byte(op), F64, I32)
	}

	for _, op := range []byte{opI32Clz, opI32Ctz, opI32Popcnt} {
		un(op, I32, I32)
	}
	for op := opI32Add; op <= opI32Rotr; op++ {
		bin(byte(op), I32, I32)
	}
	for _, op := range []byte{opI64Clz, opI64Ctz, opI64Popcnt} {
		un(op, I64, I64)
	}
	for op := opI64Add; op <= opI64Rotr; op++ {
		bin(byte(op), I64, I64)
	}
	for op := opF32Abs; op <= opF32Sqrt; op++ {
		un(byte(op), F32, F32)
	}
	for op := opF32Add; op <= opF32Copysign; op++ {
		bin(byte(op), F32, F32)
	}
	for op := opF64Abs; op <= opF64Sqrt; op++ {
		un(byte(op), F64, F64)
	}
	for op := opF64Add; op <= opF64Copysign; op++ {
		bin(byte(op), F64, F64)
	}

	un(opI32WrapI64, I64, I32)
	un(opI32TruncF32S, F32, I32)
	un(opI32TruncF32U, F32, I32)
	un(opI32TruncF64S, F64, I32)
	un(opI32TruncF64U, F64, I32)
	un(opI64ExtendI32S, I32, I64)
	un(opI64ExtendI32U, I32, I64)
	un(opI64TruncF32S, F32, I64)
	un(opI64TruncF32U, F32, I64)
	un(opI64TruncF64S, F64, I64)
	un(opI64TruncF64U, F64, I64)
	un(opF32ConvertI32S, I32, F32)
	un(opF32ConvertI32U, I32, F32)
	un(opF32ConvertI64S, I64, F32)
	un(opF32ConvertI64U, I64, F32)
	un(opF32DemoteF64, F64, F32)
	un(opF64ConvertI32S, I32, F64)
	un(opF64ConvertI32U, I32, F64)
	un(opF64ConvertI64S, I64, F64)
	un(opF64ConvertI64U, I64, F64)
	un(opF64PromoteF32, F32, F64)
	un(opI32ReinterpretF, F32, I32)
	un(opI64ReinterpretF, F64, I64)
	un(opF32ReinterpretI, I32, F32)
	un(opF64ReinterpretI, I64, F64)
	un(opI32Extend8S, I32, I32)
	un(opI32Extend16S, I32, I32)
	un(opI64Extend8S, I64, I64)
	un(opI64Extend16S, I64, I64)
	un(opI64Extend32S, I64, I64)
	return sigs
}
