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

	OpXorLoadMulRun  = opXorLoadMulRun
	OpStoreMulAddRun = opStoreMulAddRun
)

// LoweredOps returns the opcodes run dispatches along the register-form code
// of the exported function, in code order, when every memory access is in
// bounds: every instruction but the extension words and the plain steps
// behind a run's head. Its final return is included; nil when there is no
// such export.
func (m *Module) LoweredOps(export string) []byte {
	if cf := m.lowered(export); cf != nil {
		return dispatched(cf.code)
	}
	return nil
}

// LoweredLoops returns, for each backward jump of the exported function in
// code order, the opcodes dispatched from its target through the jump, as
// LoweredOps lists them: the body of each loop.
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

// LoweredRuns returns the number of word steps of each run in the exported
// function's lowered code, in code order.
func (m *Module) LoweredRuns(export string) []int {
	cf := m.lowered(export)
	if cf == nil {
		return nil
	}
	var runs []int
	for pc := 0; pc < len(cf.code); pc += 1 + extWords(cf.code[pc].op) {
		if n := runLength(cf.code, pc); n > 0 {
			runs = append(runs, n)
		}
	}
	return runs
}

// MisplacedJumps lists, as "pc->target", every jump, compare-and-branch and
// br_table entry of the exported function's lowered code that lands on an
// extension word, which run would dispatch as an instruction, or on a plain
// step behind a run's head, inside the run. The list must be empty.
func (m *Module) MisplacedJumps(export string) []string {
	cf := m.lowered(export)
	if cf == nil {
		return nil
	}
	inside := make([]bool, len(cf.code))
	for pc := 0; pc < len(cf.code); pc += 1 + extWords(cf.code[pc].op) {
		for k := 1; k < inPath(cf.code, pc); k++ {
			inside[pc+k] = true
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
			if int(t) < len(inside) && inside[t] {
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

// dispatched lists the opcodes of code along the in-bounds path, skipping
// extension words and the plain steps behind a run's head.
func dispatched(code []instr) []byte {
	var ops []byte
	for pc := 0; pc < len(code); pc += inPath(code, pc) {
		ops = append(ops, code[pc].op)
	}
	return ops
}

// runLength is the number of word steps of the run headed at pc, 0 when
// there is none.
func runLength(code []instr, pc int) int {
	if op := code[pc].op; op == opXorLoadMulRun || op == opStoreMulAddRun {
		return int(code[pc+extWords(op)].d)
	}
	return 0
}

// inPath is how far the in-bounds path moves from the instruction at pc:
// past its extension words, and past a run's plain steps.
func inPath(code []instr, pc int) int {
	return (1 + extWords(code[pc].op)) * max(1, runLength(code, pc))
}
