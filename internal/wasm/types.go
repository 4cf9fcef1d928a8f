// Package wasm implements the WebAssembly substrate of the Roadrunner
// reproduction: a from-scratch binary decoder, validator and interpreter
// for the WebAssembly MVP (plus the sign-extension and bulk-memory
// operations), with the linear-memory model and host-function interface the
// paper's data-access layer builds on (§2.1, §3.1). Decode validates a
// module and compiles its function bodies once into register-form code
// (compile.go); the instances of the module share that code and run it on
// per-call frames (exec.go).
//
// The runtime deliberately exposes linear memory to the embedder the same way
// WasmEdge does to the Roadrunner shim: a contiguous, byte-addressable region
// reachable through (pointer, length) pairs, with bounds checks at the
// boundary (Table 1, §3.1 "Shared Memory").
package wasm

import "fmt"

// ValType is a WebAssembly value type.
type ValType byte

// Value types (binary encodings per the spec).
const (
	I32 ValType = 0x7F
	I64 ValType = 0x7E
	F32 ValType = 0x7D
	F64 ValType = 0x7C
)

// String returns the WAT spelling of the type.
func (t ValType) String() string {
	switch t {
	case I32:
		return "i32"
	case I64:
		return "i64"
	case F32:
		return "f32"
	case F64:
		return "f64"
	default:
		return fmt.Sprintf("valtype(0x%02x)", byte(t))
	}
}

func validValType(b byte) bool {
	return b == byte(I32) || b == byte(I64) || b == byte(F32) || b == byte(F64)
}

// FuncType is a function signature.
type FuncType struct {
	Params  []ValType
	Results []ValType
}

// Equal reports signature equality.
func (f FuncType) Equal(o FuncType) bool {
	if len(f.Params) != len(o.Params) || len(f.Results) != len(o.Results) {
		return false
	}
	for i := range f.Params {
		if f.Params[i] != o.Params[i] {
			return false
		}
	}
	for i := range f.Results {
		if f.Results[i] != o.Results[i] {
			return false
		}
	}
	return true
}

// String renders the signature in WAT-like form.
func (f FuncType) String() string {
	return fmt.Sprintf("func%v -> %v", f.Params, f.Results)
}

// Limits describe memory/table size bounds in units of pages/elements.
type Limits struct {
	Min    uint32
	Max    uint32
	HasMax bool
}

// PageSize is the WebAssembly linear-memory page size (64 KiB).
const PageSize = 65536

// Import kinds.
const (
	ExternFunc   byte = 0x00
	ExternTable  byte = 0x01
	ExternMemory byte = 0x02
	ExternGlobal byte = 0x03
)

// Import is one module import.
type Import struct {
	Module string
	Name   string
	Kind   byte
	// TypeIndex is set for function imports.
	TypeIndex uint32
	// Mem is set for memory imports.
	Mem Limits
	// GlobalType/GlobalMutable are set for global imports.
	GlobalType    ValType
	GlobalMutable bool
}

// Export is one module export.
type Export struct {
	Name  string
	Kind  byte
	Index uint32
}

// Global is a module-defined global variable.
type Global struct {
	Type    ValType
	Mutable bool
	// Init is the constant initializer value (raw bits).
	Init uint64
}

// Code is one function body: declared locals plus raw expression bytes.
type Code struct {
	Locals []ValType
	Body   []byte
}

// DataSegment is an active data segment.
type DataSegment struct {
	MemIndex uint32
	Offset   uint32 // constant offset expression value
	Init     []byte
}

// ElemSegment is an active element segment for the function table.
type ElemSegment struct {
	TableIndex uint32
	Offset     uint32
	FuncIdxs   []uint32
}

// Module is a decoded WebAssembly module. It is immutable once Decode
// returns, and any number of instances, on any goroutines, may share it.
type Module struct {
	Types     []FuncType
	Imports   []Import
	FuncTypes []uint32 // type index per module-defined function
	Table     *Limits
	Memory    *Limits
	Globals   []Global
	Exports   []Export
	Start     *uint32
	Elems     []ElemSegment
	Codes     []Code
	Data      []DataSegment

	// NumImportedFuncs caches the function-index offset of the first
	// module-defined function.
	NumImportedFuncs int

	// code is the register-form body of each module-defined function,
	// compiled once by Decode (compile.go).
	code []*compiledFunc
}

// exportedIndex returns the export of the given kind and name.
func (m *Module) exportedIndex(kind byte, name string) (uint32, bool) {
	for _, e := range m.Exports {
		if e.Kind == kind && e.Name == name {
			return e.Index, true
		}
	}
	return 0, false
}

// FuncType returns the signature of function index i (imports first).
func (m *Module) FuncType(i uint32) (FuncType, error) {
	n := uint32(m.NumImportedFuncs)
	if i < n {
		imp := 0
		for _, im := range m.Imports {
			if im.Kind != ExternFunc {
				continue
			}
			if uint32(imp) == i {
				return m.Types[im.TypeIndex], nil
			}
			imp++
		}
	}
	di := i - n
	if int(di) >= len(m.FuncTypes) {
		return FuncType{}, fmt.Errorf("wasm: function index %d out of range", i)
	}
	return m.Types[m.FuncTypes[di]], nil
}
