package wasm

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary-format errors.
var (
	ErrBadMagic        = errors.New("wasm: bad magic or version")
	ErrMalformed       = errors.New("wasm: malformed module")
	ErrUnsupported     = errors.New("wasm: unsupported construct")
	errSectionOrder    = errors.New("wasm: sections out of order")
	errIndexOutOfRange = errors.New("wasm: index out of range")
)

// Section IDs per the spec.
const (
	secCustom   = 0
	secType     = 1
	secImport   = 2
	secFunction = 3
	secTable    = 4
	secMemory   = 5
	secGlobal   = 6
	secExport   = 7
	secStart    = 8
	secElem     = 9
	secCode     = 10
	secData     = 11
	secDataCnt  = 12
)

// Decode parses a WebAssembly binary module, performs the structural
// validation the interpreter relies on (section ordering, index ranges,
// matching function/code counts, constant expressions in initializers),
// type-checks every function body and compiles it to the register form the
// interpreter runs. The result is immutable: instantiate it as often as
// needed.
func Decode(bin []byte) (*Module, error) {
	r := &reader{data: bin}
	magic, err := r.bytes(8)
	if err != nil {
		return nil, ErrBadMagic
	}
	if string(magic[:4]) != "\x00asm" || binary.LittleEndian.Uint32(magic[4:]) != 1 {
		return nil, ErrBadMagic
	}

	m := &Module{}
	lastSection := -1
	for !r.done() {
		id, err := r.byte()
		if err != nil {
			return nil, err
		}
		size, err := r.u32()
		if err != nil {
			return nil, err
		}
		body, err := r.bytes(int(size))
		if err != nil {
			return nil, fmt.Errorf("section %d: %w", id, err)
		}
		if id != secCustom {
			if int(id) <= lastSection {
				return nil, fmt.Errorf("section %d after %d: %w", id, lastSection, errSectionOrder)
			}
			lastSection = int(id)
		}
		sr := &reader{data: body}
		if err := decodeSection(m, id, sr); err != nil {
			return nil, fmt.Errorf("section %d: %w", id, err)
		}
		if id != secCustom && !sr.done() {
			return nil, fmt.Errorf("section %d: %d trailing bytes: %w", id, sr.len(), ErrMalformed)
		}
	}
	if len(m.FuncTypes) != len(m.Codes) {
		return nil, fmt.Errorf("%d function declarations but %d bodies: %w", len(m.FuncTypes), len(m.Codes), ErrMalformed)
	}
	if err := validate(m); err != nil {
		return nil, err
	}
	return m, nil
}

func decodeSection(m *Module, id byte, r *reader) error {
	switch id {
	case secCustom:
		return nil // skipped entirely
	case secType:
		return decodeTypeSection(m, r)
	case secImport:
		return decodeImportSection(m, r)
	case secFunction:
		return decodeFunctionSection(m, r)
	case secTable:
		return decodeTableSection(m, r)
	case secMemory:
		return decodeMemorySection(m, r)
	case secGlobal:
		return decodeGlobalSection(m, r)
	case secExport:
		return decodeExportSection(m, r)
	case secStart:
		idx, err := r.u32()
		if err != nil {
			return err
		}
		m.Start = &idx
		return nil
	case secElem:
		return decodeElemSection(m, r)
	case secCode:
		return decodeCodeSection(m, r)
	case secData:
		return decodeDataSection(m, r)
	case secDataCnt:
		_, err := r.u32()
		return err
	default:
		return fmt.Errorf("id %d: %w", id, ErrUnsupported)
	}
}

func decodeTypeSection(m *Module, r *reader) error {
	count, err := r.vecLen()
	if err != nil {
		return err
	}
	m.Types = make([]FuncType, 0, count)
	for i := uint32(0); i < count; i++ {
		form, err := r.byte()
		if err != nil {
			return err
		}
		if form != 0x60 {
			return fmt.Errorf("type %d: form 0x%02x: %w", i, form, ErrUnsupported)
		}
		params, err := decodeValTypes(r)
		if err != nil {
			return err
		}
		results, err := decodeValTypes(r)
		if err != nil {
			return err
		}
		m.Types = append(m.Types, FuncType{Params: params, Results: results})
	}
	return nil
}

func decodeValTypes(r *reader) ([]ValType, error) {
	count, err := r.vecLen()
	if err != nil {
		return nil, err
	}
	out := make([]ValType, 0, count)
	for i := uint32(0); i < count; i++ {
		b, err := r.byte()
		if err != nil {
			return nil, err
		}
		if !validValType(b) {
			return nil, fmt.Errorf("valtype 0x%02x: %w", b, ErrUnsupported)
		}
		out = append(out, ValType(b))
	}
	return out, nil
}

func decodeImportSection(m *Module, r *reader) error {
	count, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < count; i++ {
		mod, err := r.name()
		if err != nil {
			return err
		}
		name, err := r.name()
		if err != nil {
			return err
		}
		kind, err := r.byte()
		if err != nil {
			return err
		}
		imp := Import{Module: mod, Name: name, Kind: kind}
		switch kind {
		case ExternFunc:
			if imp.TypeIndex, err = r.u32(); err != nil {
				return err
			}
			m.NumImportedFuncs++
		case ExternMemory:
			if imp.Mem, err = decodeLimits(r); err != nil {
				return err
			}
		case ExternGlobal:
			t, err := r.byte()
			if err != nil {
				return err
			}
			mut, err := r.byte()
			if err != nil {
				return err
			}
			imp.GlobalType, imp.GlobalMutable = ValType(t), mut == 1
		case ExternTable:
			if _, err := r.byte(); err != nil { // elemtype
				return err
			}
			if _, err := decodeLimits(r); err != nil {
				return err
			}
		default:
			return fmt.Errorf("import kind 0x%02x: %w", kind, ErrUnsupported)
		}
		m.Imports = append(m.Imports, imp)
	}
	return nil
}

func decodeFunctionSection(m *Module, r *reader) error {
	count, err := r.vecLen()
	if err != nil {
		return err
	}
	m.FuncTypes = make([]uint32, 0, count)
	for i := uint32(0); i < count; i++ {
		ti, err := r.u32()
		if err != nil {
			return err
		}
		m.FuncTypes = append(m.FuncTypes, ti)
	}
	return nil
}

func decodeTableSection(m *Module, r *reader) error {
	count, err := r.u32()
	if err != nil {
		return err
	}
	if count > 1 {
		return fmt.Errorf("%d tables: %w", count, ErrUnsupported)
	}
	if count == 1 {
		elemType, err := r.byte()
		if err != nil {
			return err
		}
		if elemType != 0x70 { // funcref
			return fmt.Errorf("table element type 0x%02x: %w", elemType, ErrUnsupported)
		}
		lim, err := decodeLimits(r)
		if err != nil {
			return err
		}
		m.Table = &lim
	}
	return nil
}

func decodeMemorySection(m *Module, r *reader) error {
	count, err := r.u32()
	if err != nil {
		return err
	}
	if count > 1 {
		return fmt.Errorf("%d memories: %w", count, ErrUnsupported)
	}
	if count == 1 {
		lim, err := decodeLimits(r)
		if err != nil {
			return err
		}
		m.Memory = &lim
	}
	return nil
}

func decodeLimits(r *reader) (Limits, error) {
	flag, err := r.byte()
	if err != nil {
		return Limits{}, err
	}
	var lim Limits
	if lim.Min, err = r.u32(); err != nil {
		return Limits{}, err
	}
	switch flag {
	case 0:
	case 1:
		lim.HasMax = true
		if lim.Max, err = r.u32(); err != nil {
			return Limits{}, err
		}
		if lim.Max < lim.Min {
			return Limits{}, fmt.Errorf("limits max %d < min %d: %w", lim.Max, lim.Min, ErrMalformed)
		}
	default:
		return Limits{}, fmt.Errorf("limits flag 0x%02x: %w", flag, ErrUnsupported)
	}
	return lim, nil
}

func decodeGlobalSection(m *Module, r *reader) error {
	count, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < count; i++ {
		t, err := r.byte()
		if err != nil {
			return err
		}
		if !validValType(t) {
			return fmt.Errorf("global %d type 0x%02x: %w", i, t, ErrUnsupported)
		}
		mut, err := r.byte()
		if err != nil {
			return err
		}
		init, initType, err := decodeConstExpr(r)
		if err != nil {
			return fmt.Errorf("global %d: %w", i, err)
		}
		if initType != ValType(t) {
			return fmt.Errorf("global %d: init type %v != declared %v: %w", i, initType, ValType(t), ErrMalformed)
		}
		m.Globals = append(m.Globals, Global{Type: ValType(t), Mutable: mut == 1, Init: init})
	}
	return nil
}

// decodeConstExpr decodes a constant initializer expression (t.const … end).
func decodeConstExpr(r *reader) (uint64, ValType, error) {
	op, err := r.byte()
	if err != nil {
		return 0, 0, err
	}
	var val uint64
	var t ValType
	switch op {
	case opI32Const:
		v, err := r.s32()
		if err != nil {
			return 0, 0, err
		}
		val, t = uint64(uint32(v)), I32
	case opI64Const:
		v, err := r.s64()
		if err != nil {
			return 0, 0, err
		}
		val, t = uint64(v), I64
	case opF32Const:
		b, err := r.bytes(4)
		if err != nil {
			return 0, 0, err
		}
		val, t = uint64(binary.LittleEndian.Uint32(b)), F32
	case opF64Const:
		b, err := r.bytes(8)
		if err != nil {
			return 0, 0, err
		}
		val, t = binary.LittleEndian.Uint64(b), F64
	default:
		return 0, 0, fmt.Errorf("const expr opcode 0x%02x: %w", op, ErrUnsupported)
	}
	end, err := r.byte()
	if err != nil {
		return 0, 0, err
	}
	if end != opEnd {
		return 0, 0, fmt.Errorf("const expr not terminated: %w", ErrMalformed)
	}
	return val, t, nil
}

func decodeExportSection(m *Module, r *reader) error {
	count, err := r.vecLen()
	if err != nil {
		return err
	}
	seen := make(map[string]bool, count)
	for i := uint32(0); i < count; i++ {
		name, err := r.name()
		if err != nil {
			return err
		}
		if seen[name] {
			return fmt.Errorf("duplicate export %q: %w", name, ErrMalformed)
		}
		seen[name] = true
		kind, err := r.byte()
		if err != nil {
			return err
		}
		idx, err := r.u32()
		if err != nil {
			return err
		}
		m.Exports = append(m.Exports, Export{Name: name, Kind: kind, Index: idx})
	}
	return nil
}

func decodeElemSection(m *Module, r *reader) error {
	count, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < count; i++ {
		flag, err := r.u32()
		if err != nil {
			return err
		}
		if flag != 0 {
			return fmt.Errorf("elem segment flag %d: %w", flag, ErrUnsupported)
		}
		off, t, err := decodeConstExpr(r)
		if err != nil {
			return err
		}
		if t != I32 {
			return fmt.Errorf("elem offset type %v: %w", t, ErrMalformed)
		}
		n, err := r.vecLen()
		if err != nil {
			return err
		}
		seg := ElemSegment{Offset: uint32(off), FuncIdxs: make([]uint32, 0, n)}
		for j := uint32(0); j < n; j++ {
			fi, err := r.u32()
			if err != nil {
				return err
			}
			seg.FuncIdxs = append(seg.FuncIdxs, fi)
		}
		m.Elems = append(m.Elems, seg)
	}
	return nil
}

func decodeCodeSection(m *Module, r *reader) error {
	count, err := r.vecLen()
	if err != nil {
		return err
	}
	m.Codes = make([]Code, 0, count)
	for i := uint32(0); i < count; i++ {
		size, err := r.u32()
		if err != nil {
			return err
		}
		body, err := r.bytes(int(size))
		if err != nil {
			return err
		}
		br := &reader{data: body}
		nGroups, err := br.u32()
		if err != nil {
			return err
		}
		var locals []ValType
		for g := uint32(0); g < nGroups; g++ {
			n, err := br.u32()
			if err != nil {
				return err
			}
			t, err := br.byte()
			if err != nil {
				return err
			}
			if !validValType(t) {
				return fmt.Errorf("code %d: local type 0x%02x: %w", i, t, ErrUnsupported)
			}
			if uint64(len(locals))+uint64(n) > 65536 {
				return fmt.Errorf("code %d: too many locals: %w", i, ErrMalformed)
			}
			for k := uint32(0); k < n; k++ {
				locals = append(locals, ValType(t))
			}
		}
		m.Codes = append(m.Codes, Code{Locals: locals, Body: body[br.pos:]})
	}
	return nil
}

func decodeDataSection(m *Module, r *reader) error {
	count, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < count; i++ {
		flag, err := r.u32()
		if err != nil {
			return err
		}
		if flag != 0 {
			return fmt.Errorf("data segment flag %d: %w", flag, ErrUnsupported)
		}
		off, t, err := decodeConstExpr(r)
		if err != nil {
			return err
		}
		if t != I32 {
			return fmt.Errorf("data offset type %v: %w", t, ErrMalformed)
		}
		n, err := r.u32()
		if err != nil {
			return err
		}
		init, err := r.bytes(int(n))
		if err != nil {
			return err
		}
		cp := make([]byte, len(init))
		copy(cp, init)
		m.Data = append(m.Data, DataSegment{Offset: uint32(off), Init: cp})
	}
	return nil
}

// validate performs the cross-section index checks the interpreter depends
// on, then type-checks (validate.go) and compiles (compile.go) every
// function body.
func validate(m *Module) error {
	nTypes := uint32(len(m.Types))
	for _, imp := range m.Imports {
		if imp.Kind == ExternFunc && imp.TypeIndex >= nTypes {
			return fmt.Errorf("import %s.%s type %d: %w", imp.Module, imp.Name, imp.TypeIndex, errIndexOutOfRange)
		}
	}
	for i, ti := range m.FuncTypes {
		if ti >= nTypes {
			return fmt.Errorf("function %d type %d: %w", i, ti, errIndexOutOfRange)
		}
	}
	nFuncs := uint32(m.NumImportedFuncs + len(m.FuncTypes))
	for _, e := range m.Exports {
		switch e.Kind {
		case ExternFunc:
			if e.Index >= nFuncs {
				return fmt.Errorf("export %q func %d: %w", e.Name, e.Index, errIndexOutOfRange)
			}
		case ExternMemory:
			if m.Memory == nil && !hasMemoryImport(m) {
				return fmt.Errorf("export %q: no memory: %w", e.Name, errIndexOutOfRange)
			}
		case ExternGlobal:
			if int(e.Index) >= len(m.Globals)+countGlobalImports(m) {
				return fmt.Errorf("export %q global %d: %w", e.Name, e.Index, errIndexOutOfRange)
			}
		case ExternTable:
			if m.Table == nil {
				return fmt.Errorf("export %q: no table: %w", e.Name, errIndexOutOfRange)
			}
		}
	}
	if m.Start != nil && *m.Start >= nFuncs {
		return fmt.Errorf("start func %d: %w", *m.Start, errIndexOutOfRange)
	}
	l := newLowerer(m)
	m.code = make([]*compiledFunc, len(m.Codes))
	for i := range m.Codes {
		if err := validateFunc(m, i); err != nil {
			return err
		}
		cf, err := l.lowerFunc(i)
		if err != nil {
			return fmt.Errorf("compile func %d: %w", i, err)
		}
		m.code[i] = cf
	}
	for i, seg := range m.Elems {
		if m.Table == nil {
			return fmt.Errorf("elem segment %d without table: %w", i, ErrMalformed)
		}
		for _, fi := range seg.FuncIdxs {
			if fi >= nFuncs {
				return fmt.Errorf("elem segment %d func %d: %w", i, fi, errIndexOutOfRange)
			}
		}
	}
	return nil
}

func hasMemoryImport(m *Module) bool {
	for _, imp := range m.Imports {
		if imp.Kind == ExternMemory {
			return true
		}
	}
	return false
}

func countGlobalImports(m *Module) int {
	n := 0
	for _, imp := range m.Imports {
		if imp.Kind == ExternGlobal {
			n++
		}
	}
	return n
}
