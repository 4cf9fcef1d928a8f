package wasm

import (
	"fmt"
	"unsafe"
)

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
	OpXorLoad     = opXorLoad
	OpMulAdd      = opMulAdd
	OpXorLoadMul  = opXorLoadMul
	OpStoreMulAdd = opStoreMulAdd
)

// LoweredOps returns the opcodes run dispatches along the register-form code
// of the exported function, in code order: every instruction but the
// extension words. Its final return is included; nil when there is no such
// export.
func (m *Module) LoweredOps(export string) []byte {
	if cf := m.lowered(export); cf != nil {
		return dispatched(cf.code)
	}
	return nil
}

// LoweredLoops returns, for each backward jump of the exported function in
// code order, the opcodes dispatched from its target through the jump: the
// body of each loop.
func (m *Module) LoweredLoops(export string) [][]byte {
	cf := m.lowered(export)
	if cf == nil {
		return nil
	}
	var loops [][]byte
	for pc, in := range cf.code {
		if in.op == opJmp && int(in.d) <= pc {
			loops = append(loops, dispatched(cf.code[in.d:pc+1]))
		}
	}
	return loops
}

// JumpsIntoExtensionWords lists, as "pc->target", every jump, compare-and-
// branch and br_table entry of the exported function's lowered code that
// lands on an extension word. Run would dispatch that word as an
// instruction, so the list must be empty.
func (m *Module) JumpsIntoExtensionWords(export string) []string {
	cf := m.lowered(export)
	if cf == nil {
		return nil
	}
	ext := make([]bool, len(cf.code))
	for pc := 0; pc < len(cf.code); pc += 1 + extWords(cf.code[pc].op) {
		for k := extWords(cf.code[pc].op); k > 0; k-- {
			ext[pc+k] = true
		}
	}
	var bad []string
	for pc := 0; pc < len(cf.code); pc += 1 + extWords(cf.code[pc].op) {
		in := &cf.code[pc]
		var targets []uint32
		switch {
		case in.op == opJmp || in.br != 0:
			targets = []uint32{in.d}
		case in.op == opBrTable:
			targets = cf.tbl[in.d:][:in.imm+1]
		}
		for _, t := range targets {
			if int(t) < len(ext) && ext[t] {
				bad = append(bad, fmt.Sprintf("%d->%d", pc, t))
			}
		}
	}
	return bad
}

func (m *Module) lowered(export string) *compiledFunc {
	idx, ok := m.exportedIndex(ExternFunc, export)
	if !ok {
		return nil
	}
	return m.code[int(idx)-m.NumImportedFuncs]
}

// dispatched lists the opcodes of code, skipping extension words.
func dispatched(code []instr) []byte {
	var ops []byte
	for pc := 0; pc < len(code); pc += 1 + extWords(code[pc].op) {
		ops = append(ops, code[pc].op)
	}
	return ops
}
