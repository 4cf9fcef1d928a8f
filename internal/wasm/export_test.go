package wasm

import "unsafe"

// InstrBytes is the size of one register-form instruction.
const InstrBytes = unsafe.Sizeof(instr{})

// SharesCode reports whether every module-defined function of both
// instances runs the one body their module compiled.
func SharesCode(a, b *Instance) bool {
	n := a.module.NumImportedFuncs
	for i, cf := range a.module.code {
		if a.funcs[n+i].cf != cf || b.funcs[n+i].cf != cf {
			return false
		}
	}
	return a.module == b.module && len(a.module.code) > 0
}

// LoweredLen returns the number of register-form instructions of the
// exported function, its final return included.
func (m *Module) LoweredLen(export string) int {
	idx, ok := m.exportedIndex(ExternFunc, export)
	if !ok {
		return -1
	}
	return len(m.code[int(idx)-m.NumImportedFuncs].code)
}
