package wasm

import "unsafe"

// InstrBytes is the size of one register-form instruction.
const InstrBytes = unsafe.Sizeof(instr{})

// Mapped reports whether the memory lives in a reservation outside the Go
// heap rather than on it.
func (m *Memory) Mapped() bool { return m.reserved != nil }

// LastFrame returns the frame of the instance's last top-level call, as that
// call left it — after a trap, with the values computed up to it.
func (inst *Instance) LastFrame() []uint64 { return inst.frames[0] }

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

// Register-form opcodes of the superinstructions, for shape tests.
const (
	OpXorLoad = opXorLoad
	OpMulAdd  = opMulAdd
)

// LoweredOps returns the opcodes run dispatches along the register-form code
// of the exported function, in code order: every instruction but the
// extension word after a mulAdd. Its final return is included; nil when
// there is no such export.
func (m *Module) LoweredOps(export string) []byte { return dispatched(m.lowered(export)) }

// LoweredLoops returns, for each backward jump of the exported function in
// code order, the opcodes dispatched from its target through the jump: the
// body of each loop.
func (m *Module) LoweredLoops(export string) [][]byte {
	code := m.lowered(export)
	var loops [][]byte
	for pc, in := range code {
		if in.op == opJmp && int(in.d) <= pc {
			loops = append(loops, dispatched(code[in.d:pc+1]))
		}
	}
	return loops
}

func (m *Module) lowered(export string) []instr {
	idx, ok := m.exportedIndex(ExternFunc, export)
	if !ok {
		return nil
	}
	return m.code[int(idx)-m.NumImportedFuncs].code
}

// dispatched lists the opcodes of code, skipping mulAdd extension words.
func dispatched(code []instr) []byte {
	var ops []byte
	for pc := 0; pc < len(code); pc++ {
		ops = append(ops, code[pc].op)
		if code[pc].op == opMulAdd {
			pc++
		}
	}
	return ops
}
