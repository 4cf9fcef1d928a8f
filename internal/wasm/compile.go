package wasm

import (
	"encoding/binary"
	"fmt"
)

// This file lowers a validated function body, once per module, into the
// register-form code exec.go runs — "decode once, execute many" per *Module,
// not per instance: Decode compiles, every Instantiate of the module shares
// the result, which is immutable from then on.
//
// The frame of one call is a []uint64:
//
//	slot 0                      always zero (the base of an immediate operand)
//	slots 1 .. numLocals        parameters, then declared locals
//	slots 1+numLocals+h         the operand-stack entry at height h
//
// Validation fixes the operand-stack height at every instruction, so every
// value has a slot known at compile time and the operand stack exists only
// in the lowerer (lowerer.stack). An entry there is either already in its
// slot, or pending: a reference to a local or a constant that no instruction
// has copied anywhere yet. local.get, *.const, drop, nop and the
// reinterpretations therefore emit nothing; their consumer names the local
// slot or carries the constant as its immediate, and a local.set right after
// the instruction that produced the value retargets that instruction's
// destination instead. A pending entry is copied to its slot (materialized)
// only when something needs it there: a write to the local it names, entry
// into a block (paths merge at its end), a call's argument window, or a
// branch's result moves.

// instr is one register-form instruction, 24 bytes. Every instruction reads
// its operands the same way before dispatch: a = frame[a] and
// b = frame[b] + imm. A slot operand has imm 0 and an immediate operand
// names slot 0, so b needs no mode bit. Fields an instruction does not use
// as operands stay 0 and read the zero slot.
type instr struct {
	imm uint64 // immediate half of b; element count (opMoveN); index | nargs<<32 (calls)
	d   uint32 // destination slot; target pc (jumps); offset (stores); first argument slot (calls)
	a   uint32
	b   uint32
	op  byte
	br  byte // compare family: 0 writes the boolean to d, brIfTrue/brIfFalse jump to pc d
}

const (
	brIfTrue  = 1
	brIfFalse = 2
)

// Register-form opcodes with no WebAssembly counterpart. Everything else
// reuses the opcode of the instruction it was lowered from.
const (
	opMov   = 0xD0 // frame[d] = b
	opMoveN = 0xD1 // frame[d:d+imm] = frame[a:a+imm]
	opJmp   = 0xD2 // pc = d
	opNez   = 0xD3 // compare family: b != 0, what br_if and if test on a plain value
)

// compiledFunc is a lowered function body, shared by every instance of its
// module.
type compiledFunc struct {
	numLocals  int // parameters + declared locals
	numResults int
	frameSize  int // 1 + numLocals + the deepest operand stack
	code       []instr
	tbl        []uint32 // br_table target pcs; an instruction indexes a run of count+1
}

// results is where a returned function leaves its values: the bottom of the
// operand stack.
func (cf *compiledFunc) results(fr []uint64) []uint64 {
	return fr[1+cf.numLocals:][:cf.numResults]
}

// operand is one entry of the lowerer's operand stack.
type operand struct {
	kind byte
	v    uint64 // local index (inLocal) or value (isConst)
}

const (
	inSlot  = iota // in the entry's own stack slot
	inLocal        // pending: still only in local v
	isConst        // pending: the constant v
)

// pendingWindow bounds how far below the top a pending entry may sit; a
// push materializes the entry that falls out of it. Expression trees rarely
// go deeper, and every scan for pending entries is bounded by it.
const pendingWindow = 8

// lowerCtrl is one open block, loop, if or — at index 0 — the function.
type lowerCtrl struct {
	op     byte // opBlock, opLoop, opIf, opElse; 0 for the function
	arity  int  // result values
	height int  // operand-stack height at entry
	loopPC int  // opLoop: where a branch to it lands
	// ends chains the jumps to the end label that await its pc (see
	// lowerer.jumpTo); elseJmp is an if's jump over its then-arm.
	ends    int
	elseJmp int
	// dead: opened inside skipped code, nothing in it is lowered.
	// unreachable: the rest of the frame follows br, br_table, return or
	// unreachable; its operand stack is polymorphic and the code is skipped
	// up to the frame's else or end.
	dead, unreachable bool
}

// lowerer compiles the function bodies of one module.
type lowerer struct {
	m        *Module
	funcType []uint32 // type index by function index, imports first
	cf       *compiledFunc
	stack    []operand
	ctrls    []lowerCtrl
	depths   []uint32 // br_table immediates, default last
	maxStack int
	// lastDef is the instruction, still the last one emitted, whose d is the
	// slot of stack entry defAt; -1 when there is none. It is what
	// local.set retargets and br_if/if fuse with.
	lastDef, defAt int
}

func newLowerer(m *Module) *lowerer {
	l := &lowerer{m: m}
	for _, imp := range m.Imports {
		if imp.Kind == ExternFunc {
			l.funcType = append(l.funcType, imp.TypeIndex)
		}
	}
	l.funcType = append(l.funcType, m.FuncTypes...)
	return l
}

func (l *lowerer) local(k uint64) uint32 { return uint32(1 + k) }
func (l *lowerer) slot(i int) uint32     { return uint32(1 + l.cf.numLocals + i) }

func (l *lowerer) emit(in instr) int {
	l.cf.code = append(l.cf.code, in)
	l.lastDef = -1
	return len(l.cf.code) - 1
}

// bind records that a branch may land on the next instruction, so it cannot
// be fused with the one before it.
func (l *lowerer) bind() int {
	l.lastDef = -1
	return len(l.cf.code)
}

func (l *lowerer) push(o operand) {
	if i := len(l.stack) - pendingWindow; i >= 0 {
		l.materialize(i)
	}
	l.stack = append(l.stack, o)
	if len(l.stack) > l.maxStack {
		l.maxStack = len(l.stack)
	}
}

// def emits an instruction whose only effect on the frame is writing d, the
// slot of the entry it pushes.
func (l *lowerer) def(in instr) {
	i := len(l.stack)
	in.d = l.slot(i)
	l.push(operand{kind: inSlot})
	l.lastDef, l.defAt = l.emit(in), i
}

// defines reports whether lastDef is the instruction that produced stack
// entry i.
func (l *lowerer) defines(i int) bool {
	return l.lastDef >= 0 && l.defAt == i && l.stack[i].kind == inSlot
}

// srcB encodes stack entry i as a b operand: a slot, or an immediate.
func (l *lowerer) srcB(i int) (b uint32, imm uint64) {
	switch o := l.stack[i]; o.kind {
	case inLocal:
		return l.local(o.v), 0
	case isConst:
		return 0, o.v
	default:
		return l.slot(i), 0
	}
}

// srcA encodes stack entry i as an a operand, which has no immediate form.
func (l *lowerer) srcA(i int) uint32 {
	if l.stack[i].kind == isConst {
		l.materialize(i)
	}
	b, _ := l.srcB(i)
	return b
}

func (l *lowerer) materialize(i int) {
	if l.stack[i].kind == inSlot {
		return
	}
	b, imm := l.srcB(i)
	l.emit(instr{op: opMov, d: l.slot(i), b: b, imm: imm})
	l.stack[i] = operand{kind: inSlot}
}

// flush materializes the pending entries in stack[lo:hi].
func (l *lowerer) flush(lo, hi int) {
	for i := max(lo, len(l.stack)-pendingWindow); i < hi; i++ {
		l.materialize(i)
	}
}

// flushLocal materializes the references to local k pending in stack[:hi]:
// the local is about to be overwritten.
func (l *lowerer) flushLocal(k uint64, hi int) {
	for i := max(0, len(l.stack)-pendingWindow); i < hi; i++ {
		if o := l.stack[i]; o.kind == inLocal && o.v == k {
			l.materialize(i)
		}
	}
}

// jumpTo points jump site at f's label: the loop head, or the pc after f's
// end, known only when the end is reached. Until then the sites form a chain
// through the very fields that will hold the pc, headed by f.ends and ended
// by noSite; a site is an instruction index (its d) or a tblSite.
func (l *lowerer) jumpTo(f *lowerCtrl, site int) {
	pc := uint32(int32(f.ends))
	if f.op == opLoop {
		pc = uint32(f.loopPC)
	} else {
		f.ends = site
	}
	*l.siteField(site) = pc
}

const noSite = -1

// tblSite names entry i of the function's br_table side table as a jump
// site.
func tblSite(i int) int { return -2 - i }

func (l *lowerer) siteField(site int) *uint32 {
	if site >= 0 {
		return &l.cf.code[site].d
	}
	return &l.cf.tbl[-2-site]
}

// resolve binds the end label of f here.
func (l *lowerer) resolve(f *lowerCtrl) {
	pc := uint32(l.bind())
	for site := f.ends; site != noSite; {
		field := l.siteField(site)
		site, *field = int(int32(*field)), pc
	}
}

// condJump consumes the condition on top of the stack and emits the jump
// taken when it is true (brIfTrue) or false (brIfFalse). A comparison that
// was the last instruction becomes the jump itself.
func (l *lowerer) condJump(br byte) int {
	i := len(l.stack) - 1
	j := l.lastDef
	if l.defines(i) && l.cf.code[j].op >= opI32Eqz && l.cf.code[j].op <= opF64Ge {
		l.cf.code[j].br = br
		l.lastDef = -1
	} else {
		b, imm := l.srcB(i)
		j = l.emit(instr{op: opNez, b: b, imm: imm, br: br})
	}
	l.stack = l.stack[:i]
	return j
}

// label returns the frame a branch of the given relative depth targets and
// the number of values it carries.
func (l *lowerer) label(depth uint32) (*lowerCtrl, int) {
	f := &l.ctrls[len(l.ctrls)-1-int(depth)]
	if f.op == opLoop {
		return f, 0
	}
	return f, f.arity
}

// carry prepares a branch that takes the top n entries to f's result slots
// and reports whether they have to move. The moves themselves (moveResults)
// may run on one path only, so they must not change what the lowerer
// believes about the stack: a single value moves straight from wherever it
// is, several are materialized here, ahead of the branch.
func (l *lowerer) carry(f *lowerCtrl, n int) bool {
	src := len(l.stack) - n
	if n > 1 {
		l.flush(src, len(l.stack))
	}
	return n > 0 && (src != f.height || l.stack[src].kind != inSlot)
}

func (l *lowerer) moveResults(f *lowerCtrl, n int) {
	src := len(l.stack) - n
	if n == 1 {
		b, imm := l.srcB(src)
		l.emit(instr{op: opMov, d: l.slot(f.height), b: b, imm: imm})
	} else {
		l.emit(instr{op: opMoveN, d: l.slot(f.height), a: l.slot(src), imm: uint64(n)})
	}
}

// branch emits an unconditional branch to f carrying n values.
func (l *lowerer) branch(f *lowerCtrl, n int) {
	if l.carry(f, n) {
		l.moveResults(f, n)
	}
	if f.op == 0 {
		l.emit(instr{op: opReturn})
	} else {
		l.jumpTo(f, l.emit(instr{op: opJmp}))
	}
}

// setUnreachable starts skipping: the rest of the innermost frame cannot
// execute.
func (l *lowerer) setUnreachable() {
	f := &l.ctrls[len(l.ctrls)-1]
	f.unreachable = true
	l.stack = l.stack[:f.height]
}

func (l *lowerer) open(op byte, arity int) {
	l.ctrls = append(l.ctrls, lowerCtrl{op: op, arity: arity, height: len(l.stack), loopPC: l.bind(), ends: noSite, elseJmp: -1})
}

// closeArm ends the live or skipped arm of f at an else or end: its results
// go to their slots, which are the canonical ones at this height.
func (l *lowerer) closeArm(f *lowerCtrl) {
	if !f.unreachable {
		l.flush(f.height, len(l.stack))
	}
	l.stack = l.stack[:f.height]
}

// lowerFunc compiles function body fnIdx, which validateFunc has accepted.
func (l *lowerer) lowerFunc(fnIdx int) (*compiledFunc, error) {
	body := l.m.Codes[fnIdx]
	ft := l.m.Types[l.m.FuncTypes[fnIdx]]
	l.cf = &compiledFunc{
		numLocals:  len(ft.Params) + len(body.Locals),
		numResults: len(ft.Results),
		code:       make([]instr, 0, len(body.Body)/4+4), // the guest lowers to one per 4.4 bytes
	}
	l.stack, l.ctrls, l.maxStack = l.stack[:0], l.ctrls[:0], 0
	l.open(0, len(ft.Results))

	r := &reader{data: body.Body}
	for !r.done() {
		if len(l.ctrls) == 0 {
			return nil, fmt.Errorf("code after function end: %w", ErrMalformed)
		}
		op, imm, err := l.fetch(r)
		if err != nil {
			return nil, err
		}
		if f := &l.ctrls[len(l.ctrls)-1]; f.unreachable {
			switch op {
			case opBlock, opLoop, opIf:
				l.ctrls = append(l.ctrls, lowerCtrl{op: op, dead: true, unreachable: true})
			case opElse:
				l.lowerElse(f)
			case opEnd:
				l.lowerEnd()
			}
			continue
		}
		if err := l.lower(op, imm); err != nil {
			return nil, err
		}
	}
	if len(l.ctrls) != 0 {
		return nil, fmt.Errorf("%d unterminated blocks: %w", len(l.ctrls), ErrMalformed)
	}
	l.cf.frameSize = 1 + l.cf.numLocals + l.maxStack
	return l.cf, nil
}

// fetch decodes one instruction. imm is its immediate — a block's arity, a
// memory access's offset, a constant's bits — except for br_table, whose
// depths land in l.depths with the default last. The 0xFC group comes back
// as its synthetic single-byte opcode.
func (l *lowerer) fetch(r *reader) (op byte, imm uint64, err error) {
	if op, err = r.byte(); err != nil {
		return 0, 0, err
	}
	var v32 uint32
	switch op {
	case opBlock, opLoop, opIf:
		var bt int64
		if bt, err = r.s33(); err == nil {
			var arity int
			arity, err = blockArity(l.m, bt)
			imm = uint64(arity)
		}
	case opBr, opBrIf, opCall, opLocalGet, opLocalSet, opLocalTee, opGlobalGet, opGlobalSet:
		v32, err = r.u32()
		imm = uint64(v32)
	case opBrTable:
		var n uint32
		if n, err = r.u32(); err != nil {
			return 0, 0, err
		}
		l.depths = l.depths[:0]
		for i := uint64(0); i <= uint64(n) && err == nil; i++ {
			v32, err = r.u32()
			l.depths = append(l.depths, v32)
		}
	case opCallIndirect:
		if v32, err = r.u32(); err != nil {
			return 0, 0, err
		}
		imm = uint64(v32)
		var tb byte
		if tb, err = r.byte(); err == nil && tb != 0 {
			err = fmt.Errorf("call_indirect table %d: %w", tb, ErrUnsupported)
		}
	case opI32Const:
		var v int32
		v, err = r.s32()
		imm = uint64(uint32(v))
	case opI64Const:
		var v int64
		v, err = r.s64()
		imm = uint64(v)
	case opF32Const:
		var b []byte
		if b, err = r.bytes(4); err == nil {
			imm = uint64(binary.LittleEndian.Uint32(b))
		}
	case opF64Const:
		var b []byte
		if b, err = r.bytes(8); err == nil {
			imm = binary.LittleEndian.Uint64(b)
		}
	case opMemorySize, opMemoryGrow:
		var mb byte
		if mb, err = r.byte(); err == nil && mb != 0 {
			err = fmt.Errorf("memory index %d: %w", mb, ErrUnsupported)
		}
	case opPrefixFC:
		if v32, err = r.u32(); err != nil {
			return 0, 0, err
		}
		switch v32 {
		case 10: // memory.copy, two memory indices
			op = opMemoryCopySyn
			_, err = r.bytes(2)
		case 11: // memory.fill, one
			op = opMemoryFillSyn
			_, err = r.byte()
		default:
			err = fmt.Errorf("0xFC opcode %d: %w", v32, ErrUnsupported)
		}
	default:
		if simpleSignatures[op].mem {
			// memarg: alignment hint (discarded) + offset.
			if _, err = r.u32(); err == nil {
				v32, err = r.u32()
				imm = uint64(v32)
			}
		}
	}
	return op, imm, err
}

// blockArity returns the number of result values a block type yields. MVP:
// empty (0x40) or one value type; type-index block types are accepted when
// the referenced signature has no parameters.
func blockArity(m *Module, bt int64) (int, error) {
	switch {
	case bt == -64: // 0x40 as signed 7-bit: empty block
		return 0, nil
	case bt >= -4 && bt <= -1: // signed encodings of 0x7F..0x7C (value types)
		return 1, nil
	case bt >= 0 && int(bt) < len(m.Types):
		if ft := m.Types[bt]; len(ft.Params) == 0 {
			return len(ft.Results), nil
		}
		return 0, fmt.Errorf("block type with parameters: %w", ErrUnsupported)
	default:
		return 0, fmt.Errorf("block type %d: %w", bt, ErrMalformed)
	}
}

// lower compiles one reachable instruction.
func (l *lowerer) lower(op byte, imm uint64) error {
	n := len(l.stack)
	switch op {
	case opNop:
	case opUnreachable:
		l.emit(instr{op: opUnreachable})
		l.setUnreachable()

	case opBlock, opLoop:
		l.flush(0, n)
		l.open(op, int(imm))
	case opIf:
		l.flush(0, n-1)
		j := l.condJump(brIfFalse)
		l.open(opIf, int(imm))
		l.ctrls[len(l.ctrls)-1].elseJmp = j
	case opElse:
		l.lowerElse(&l.ctrls[len(l.ctrls)-1])
	case opEnd:
		l.lowerEnd()

	case opBr:
		l.branch(l.label(uint32(imm)))
		l.setUnreachable()
	case opReturn:
		l.branch(&l.ctrls[0], l.cf.numResults)
		l.setUnreachable()
	case opBrIf:
		f, arity := l.label(uint32(imm))
		cond := operand{}
		cond, l.stack = l.stack[n-1], l.stack[:n-1]
		moves := l.carry(f, arity)
		l.stack = append(l.stack, cond)
		if !moves {
			l.jumpTo(f, l.condJump(brIfTrue))
			break
		}
		skip := l.condJump(brIfFalse)
		l.moveResults(f, arity)
		l.jumpTo(f, l.emit(instr{op: opJmp}))
		l.cf.code[skip].d = uint32(l.bind())
	case opBrTable:
		idx := l.srcA(n - 1)
		l.stack = l.stack[:n-1]
		def, arity := l.label(l.depths[len(l.depths)-1])
		l.carry(def, arity) // materializes what several arms share
		start := len(l.cf.tbl)
		l.cf.tbl = append(l.cf.tbl, l.depths...)
		l.emit(instr{op: opBrTable, a: idx, d: uint32(start), imm: uint64(len(l.depths) - 1)})
		for i, depth := range l.depths {
			if f, _ := l.label(depth); l.carry(f, arity) {
				// The arm lands on its own moves, then jumps on.
				l.cf.tbl[start+i] = uint32(len(l.cf.code))
				l.moveResults(f, arity)
				l.jumpTo(f, l.emit(instr{op: opJmp}))
			} else {
				l.jumpTo(f, tblSite(start+i))
			}
		}
		l.setUnreachable()

	case opCall, opCallIndirect:
		ti := imm
		if op == opCall {
			ti = uint64(l.funcType[imm])
		}
		ft := l.m.Types[ti]
		in := instr{op: op, imm: imm | uint64(len(ft.Params))<<32}
		if op == opCallIndirect {
			in.a = l.srcA(n - 1)
			n--
		}
		// Arguments go to the callee from their slots, results come back
		// into the same window.
		base := n - len(ft.Params)
		l.flush(base, n)
		in.d = l.slot(base)
		l.emit(in)
		l.stack = l.stack[:base]
		for range ft.Results {
			l.push(operand{kind: inSlot})
		}

	case opDrop:
		l.stack = l.stack[:n-1]
	case opSelect:
		// v1 waits in the result slot; the instruction replaces it with v2
		// when the condition is zero.
		l.materialize(n - 3)
		a := l.srcA(n - 1)
		b, v := l.srcB(n - 2)
		l.emit(instr{op: opSelect, d: l.slot(n - 3), a: a, b: b, imm: v})
		l.stack = l.stack[:n-2]

	case opLocalGet:
		l.push(operand{kind: inLocal, v: imm})
	case opLocalSet, opLocalTee:
		l.flushLocal(imm, n-1)
		if l.defines(n - 1) {
			l.cf.code[l.lastDef].d = l.local(imm)
			l.lastDef = -1
			l.stack[n-1] = operand{kind: inLocal, v: imm}
		} else if top := l.stack[n-1]; top.kind != inLocal || top.v != imm {
			b, v := l.srcB(n - 1)
			l.emit(instr{op: opMov, d: l.local(imm), b: b, imm: v})
		}
		if op == opLocalSet {
			l.stack = l.stack[:n-1]
		}
	case opGlobalGet:
		l.def(instr{op: op, imm: imm})
	case opGlobalSet:
		// The value is b; the global index takes d, which a store-like
		// instruction has free.
		b, v := l.srcB(n - 1)
		l.emit(instr{op: op, d: uint32(imm), b: b, imm: v})
		l.stack = l.stack[:n-1]

	case opI32Const, opI64Const, opF32Const, opF64Const:
		l.push(operand{kind: isConst, v: imm})

	case opMemorySize:
		l.def(instr{op: op})
	case opMemoryGrow:
		b, v := l.srcB(n - 1)
		l.stack = l.stack[:n-1]
		l.def(instr{op: op, b: b, imm: v})
	case opMemoryCopySyn, opMemoryFillSyn:
		// (dst, src|value, count): three operands, so they are read from
		// consecutive slots starting at d.
		l.flush(n-3, n)
		l.emit(instr{op: op, d: l.slot(n - 3)})
		l.stack = l.stack[:n-3]

	default:
		return l.lowerSimple(op, imm)
	}
	return nil
}

// lowerSimple compiles the opcodes with a fixed signature — the table
// validate.go type-checks them with gives the operand shape: load, store,
// one operand, two operands.
func (l *lowerer) lowerSimple(op byte, imm uint64) error {
	n := len(l.stack)
	sig := &simpleSignatures[op]
	switch {
	case sig.params == nil:
		return fmt.Errorf("opcode 0x%02x: %w", op, ErrUnsupported)
	case sig.mem && len(sig.params) == 1: // load: the address is a, the offset b
		in := instr{op: op, imm: imm}
		if addr := l.stack[n-1]; addr.kind == isConst {
			in.imm += addr.v
		} else {
			in.a = l.srcA(n - 1)
		}
		l.stack = l.stack[:n-1]
		l.def(in)
	case sig.mem: // store: the offset takes d
		in := instr{op: op, d: uint32(imm), a: l.srcA(n - 2)}
		in.b, in.imm = l.srcB(n - 1)
		l.emit(in)
		l.stack = l.stack[:n-2]
	case op >= opI32ReinterpretF && op <= opF64ReinterpretI:
		// Same bits in a frame slot.
	case len(sig.params) == 1:
		in := instr{op: op}
		in.b, in.imm = l.srcB(n - 1)
		l.stack = l.stack[:n-1]
		l.def(in)
	default:
		ia, ib := n-2, n-1
		if l.stack[ia].kind == isConst && l.stack[ib].kind != isConst && commutative(op) {
			ia, ib = ib, ia // only b has an immediate form
		}
		in := instr{op: op, a: l.srcA(ia)}
		in.b, in.imm = l.srcB(ib)
		l.stack = l.stack[:n-2]
		l.def(in)
	}
	return nil
}

func commutative(op byte) bool {
	switch op {
	case opI32Add, opI32Mul, opI32And, opI32Or, opI32Xor, opI32Eq, opI32Ne,
		opI64Add, opI64Mul, opI64And, opI64Or, opI64Xor, opI64Eq, opI64Ne:
		return true
	}
	return false
}

func (l *lowerer) lowerElse(f *lowerCtrl) {
	if f.dead {
		return
	}
	live := !f.unreachable
	l.closeArm(f)
	if live {
		l.jumpTo(f, l.emit(instr{op: opJmp})) // the then-arm skips the else-arm
	}
	l.cf.code[f.elseJmp].d = uint32(l.bind())
	f.op, f.elseJmp, f.unreachable = opElse, -1, false
}

func (l *lowerer) lowerEnd() {
	f := l.ctrls[len(l.ctrls)-1]
	l.ctrls = l.ctrls[:len(l.ctrls)-1]
	if f.dead {
		return
	}
	l.closeArm(&f)
	if f.elseJmp >= 0 { // if without else
		l.cf.code[f.elseJmp].d = uint32(len(l.cf.code))
	}
	l.resolve(&f)
	for i := 0; i < f.arity; i++ {
		l.push(operand{kind: inSlot})
	}
	if f.op == 0 {
		l.emit(instr{op: opReturn})
	}
}
