package wasm_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasmbuild"
)

// FuzzExecAgainstTreeEval checks the interpreter against an oracle that
// shares nothing with it. The fuzz bytes drive a generator (gen) that grows
// a random program as a tree — expressions and statements over i32/i64, not
// instructions —, the tree is written out as a module with wasmbuild (emit)
// and run by the interpreter, and the same tree is evaluated directly in Go
// over a shadow memory (evaluator: no pc, no operand stack, no label stack;
// a branch is a Go panic caught by the construct it targets). Result, trap
// identity, final memory and globals must agree.
//
// Covered: i32/i64 arithmetic with div/rem/shift/rotate edge operands,
// comparisons, select, locals incl. tee, globals, if/else with and without
// results, nested blocks and bounded loops, br / br_if / br_table out of
// depth 0-3 with and without a value, loads and stores of every integer
// width at addresses straddling the memory end, memory.size/grow (also by
// the host, mid-call), a call to a second generated function and to a host
// import, and the dead-code shapes after br / return / unreachable.
// Not covered: floating point (float_test.go has properties for it),
// call_indirect, memory.copy/fill, multi-value blocks, the start function.
func FuzzExecAgainstTreeEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("roadrunner: accelerating data delivery to wasm functions"))
	f.Fuzz(checkAgainstTreeEval)
}

// TestExecAgainstTreeEvalRandom runs the fuzz target's check over a fixed
// pseudo-random sample, so plain `go test` exercises the oracle too.
func TestExecAgainstTreeEvalRandom(t *testing.T) {
	var rng uint64 = 1
	for i := 0; i < 3000; i++ {
		checkAgainstTreeEval(t, pseudoRandom(&rng, 64+i%192))
	}
}

// pseudoRandom returns the next n bytes of an LCG stream.
func pseudoRandom(rng *uint64, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		*rng = *rng*6364136223846793005 + 1442695040888963407
		data[i] = byte(*rng >> 56)
	}
	return data
}

func checkAgainstTreeEval(t *testing.T, data []byte) {
	p := generate(data)
	m, err := wasm.Decode(p.module())
	if err != nil {
		t.Fatalf("generated module rejected: %v\n%s", err, p)
	}
	// The interpreter's run.
	var hostCalls int
	imports := wasm.Imports{}
	imports.Add("env", "h", wasm.HostFunc{
		Type: wasm.FuncType{Params: []wasm.ValType{i32, i64}, Results: []wasm.ValType{i64}},
		Fn: func(ctx *wasm.HostContext, args []uint64) ([]uint64, error) {
			hostCalls++
			res, grow := hostEffect(uint32(args[0]), args[1], hostCalls)
			if grow {
				ctx.Memory().Grow(1)
			}
			return []uint64{res}, nil
		},
	})
	inst, err := wasm.Instantiate(m, imports, nil)
	if err != nil {
		t.Fatalf("instantiate: %v\n%s", err, p)
	}
	got, gotErr := inst.Call("main", uint64(p.arg0), p.arg1)

	// The oracle's.
	ev := newEvaluator(p)
	want, wantErr := ev.run()

	if wantErr != nil {
		if !errors.Is(gotErr, wantErr) {
			t.Fatalf("interpreter: %v (%v), oracle traps with %v\n%s", got, gotErr, wantErr, p)
		}
	} else if gotErr != nil || got[0] != want {
		t.Fatalf("interpreter: %v (%v), oracle: %#x\n%s", got, gotErr, want, p)
	}
	view, err := inst.Memory().View(0, uint32(inst.Memory().Size()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(view, ev.mem) {
		t.Fatalf("memory differs (interpreter %d bytes, oracle %d)\n%s", len(view), len(ev.mem), p)
	}
	for i, name := range []string{"g0", "g1"} {
		if v, err := inst.GlobalValue(name); err != nil || v != ev.globals[i] {
			t.Fatalf("global %s = %#x (%v), oracle %#x\n%s", name, v, err, ev.globals[i], p)
		}
	}
}

// FuzzDecodeValidate feeds arbitrary bytes to Decode: it must never panic,
// and a module it accepts has been compiled, so it must link.
func FuzzDecodeValidate(f *testing.F) {
	f.Add(guest.Module())
	for _, bin := range deadCodeModules() {
		f.Add(bin)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			t.Skip("a code entry's run-length locals expand 64Ki-fold; keep the fuzzer's memory small")
		}
		m, err := wasm.Decode(data)
		if err != nil {
			return
		}
		// Link without running anything or allocating gigabytes on the
		// module's say-so.
		if m.Start != nil || (m.Memory != nil && m.Memory.Min > 16) || (m.Table != nil && m.Table.Min > 1<<16) {
			return
		}
		imports := wasm.Imports{}
		for _, imp := range m.Imports {
			if imp.Kind == wasm.ExternFunc {
				imports.Add(imp.Module, imp.Name, wasm.HostFunc{Type: m.Types[imp.TypeIndex]})
			}
		}
		_, err = wasm.Instantiate(m, imports, nil)
		if err != nil && !errors.Is(err, wasm.ErrUnsupported) && !errors.Is(err, wasm.ErrDataOutOfRange) {
			t.Fatalf("a module that validates does not instantiate: %v", err)
		}
	})
}

// ---------------------------------------------------------------------------
// The program tree.

type kind byte

const (
	// Expressions: t is the value type.
	kConst     kind = iota // n
	kLocalGet              // n = local
	kLocalTee              // n = local; kids: value
	kGlobalGet             // n = global
	kUn                    // op; kids: operand
	kBin                   // op; kids: left, right
	kSelect                // kids: v1, v2, cond
	kIfElse                // kids: cond, then (kBlockVal body), else (same)
	kLoad                  // op, n = offset; kids: address
	kMemSize               //
	kMemGrow               // kids: delta
	kCall                  // n = 0: host import, 1: the second function; kids: i32, i64
	kBlockVal              // block (result t): kids: statements..., value
	kBrIfVal               // n = depth; kids: value, cond — the value stays when not taken
	kFirst                 // kids: kept, dropped — evaluates both, drops the second

	// Statements.
	kLocalSet  // n = local; kids: value
	kGlobalSet // n = global; kids: value
	kStore     // op, n = offset; kids: address, value
	kDrop      // kids: value
	kIf        // kids: cond, then (kSeq), else (kSeq)
	kLoop      // n = trips, aux = counter local; kids: body (kSeq)
	kBlock     // kids: body (kSeq)
	kBr        // n = depth; kids: value, if the label takes one
	kBrIf      // n = depth; kids: cond
	kBrTable   // tbl, n = default depth; kids: [value,] index
	kReturn    // kids: value
	kTrap      // unreachable
	kSeq       // kids: statements
	kDead      // n = shape: code behind an unconditional transfer, emitted, never evaluated
)

type node struct {
	k    kind
	t    wasm.ValType
	op   byte
	n    uint64
	aux  uint32
	kids []*node
	tbl  []uint32
}

func (n *node) String() string {
	s := fmt.Sprintf("(%d", n.k)
	if n.op != 0 {
		s += fmt.Sprintf(" op=%#x", n.op)
	}
	if n.n != 0 || n.k == kConst {
		s += fmt.Sprintf(" %#x", n.n)
	}
	if n.tbl != nil {
		s += fmt.Sprint(" ", n.tbl)
	}
	for _, k := range n.kids {
		s += " " + k.String()
	}
	return s + ")"
}

// program is two functions over (i32, i64) -> i64 — main, which may call
// helper, and both may call the host import — and main's arguments.
type program struct {
	main, helper *fn
	arg0         uint32
	arg1         uint64
}

type fn struct {
	body   *node          // kBlockVal of type i64
	locals []wasm.ValType // params included
}

func (p *program) String() string {
	return fmt.Sprintf("main(%#x, %#x)\nmain: %v\nhelper: %v", p.arg0, p.arg1, p.main.body, p.helper.body)
}

const (
	fuzzMinPages = 1
	fuzzMaxPages = 3
	fuzzGlobal0  = 7
	fuzzGlobal1  = 1 << 40
)

// hostEffect defines the host import for both sides: its result, and
// whether this call grows the caller's memory by a page.
func hostEffect(a uint32, b uint64, calls int) (res uint64, grow bool) {
	return b*3 + uint64(a) ^ uint64(calls), a&3 == 1
}

// ---------------------------------------------------------------------------
// Generator: fuzz bytes in, tree out. Every choice consumes a byte; when the
// input runs out the bytes come from a generator seeded with the input's
// hash, so a one-byte mutation of a short input is a different random
// program, not the same one with a leaf changed. Budget and depth limits end
// every tree.

type label struct {
	t    wasm.ValType // 0: a branch to it carries nothing
	loop bool
}

type gen struct {
	data   []byte
	rng    uint64
	budget int
	f      *fn
	labels []label
	loops  int
	calls  bool // may call helper
}

func (g *gen) byte() byte {
	if len(g.data) == 0 {
		g.rng = g.rng*6364136223846793005 + 1442695040888963407
		return byte(g.rng >> 56)
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *gen) intn(n int) int { return int(g.byte()) % n }

func generate(data []byte) *program {
	g := &gen{data: data, rng: 0xcbf29ce484222325}
	for _, b := range data {
		g.rng = (g.rng ^ uint64(b)) * 0x100000001b3
	}
	p := &program{}
	p.main = g.function(true)
	p.helper = g.function(false)
	p.arg0 = uint32(g.constant(i32))
	p.arg1 = g.constant(i64)
	return p
}

func (g *gen) function(calls bool) *fn {
	g.f = &fn{locals: []wasm.ValType{i32, i64, i32, i64, i32, i64}}
	g.budget, g.calls, g.loops = 64, calls, 0
	g.labels = []label{{t: i64}}
	g.f.body = g.blockVal(i64, 0)
	// The declared locals start out as edge values, not zeros.
	var init []*node
	for l := uint64(2); l < 6; l++ {
		t := g.f.locals[l]
		init = append(init, &node{k: kLocalSet, n: l, kids: []*node{{k: kConst, t: t, n: g.constant(t)}}})
	}
	g.f.body.kids = append(init, g.f.body.kids...)
	return g.f
}

var edges = []uint64{0, 1, 2, 7, 8, 31, 32, 33, 63, 64, 65, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFFFF,
	wasm.PageSize - 8, wasm.PageSize - 4, wasm.PageSize - 1, wasm.PageSize, 2*wasm.PageSize - 2, 3 * wasm.PageSize,
	math.MaxInt32, 1 << 31, math.MaxUint32, math.MaxInt64, 1 << 63, math.MaxUint64}

func (g *gen) constant(t wasm.ValType) uint64 {
	v := edges[g.intn(len(edges))]
	if g.byte()&1 == 1 {
		v = v<<8 | uint64(g.byte())
	}
	if t == i32 {
		v = uint64(uint32(v))
	}
	return v
}

func (g *gen) local(t wasm.ValType) uint64 {
	// Locals alternate i32, i64; the loop counters appended later are
	// never picked. Few locals, so reads and writes of one often meet.
	return uint64(2*g.intn(3)) + uint64(t^i32)&1
}

var (
	binOps = [2][]byte{
		{0x6A, 0x6B, 0x6C, 0x6D, 0x6E, 0x6F, 0x70, 0x71, 0x72, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78},
		{0x7C, 0x7D, 0x7E, 0x7F, 0x80, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A},
	}
	cmpOps = [2][]byte{
		{0x46, 0x47, 0x48, 0x49, 0x4A, 0x4B, 0x4C, 0x4D, 0x4E, 0x4F},
		{0x51, 0x52, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A},
	}
	unOps = [2][]byte{
		{0x67, 0x68, 0x69, 0xC0, 0xC1},
		{0x79, 0x7A, 0x7B, 0xC2, 0xC3, 0xC4},
	}
	loadOps = [2][]byte{
		{0x28, 0x2C, 0x2D, 0x2E, 0x2F},
		{0x29, 0x30, 0x31, 0x32, 0x33, 0x34, 0x35},
	}
	storeOps = [2][]byte{
		{0x36, 0x3A, 0x3B},
		{0x37, 0x3C, 0x3D, 0x3E},
	}
	offsets = []uint64{0, 0, 0, 1, 2, 4, 7, 8, 16, 24, wasm.PageSize - 4, wasm.PageSize, math.MaxUint32}
)

func typeIndex(t wasm.ValType) int { return int(t^i32) & 1 } // i32: 0, i64: 1

// target picks a branch depth of at most 3 whose label carries t (0:
// nothing); ok is false when there is none.
func (g *gen) target(t wasm.ValType) (depth uint64, ok bool) {
	var found []uint64
	for d := 0; d < len(g.labels) && d <= 3; d++ {
		if l := g.labels[len(g.labels)-1-d]; (l.loop && t == 0) || (!l.loop && l.t == t) {
			found = append(found, uint64(d))
		}
	}
	if len(found) == 0 {
		return 0, false
	}
	return found[g.intn(len(found))], true
}

func (g *gen) expr(t wasm.ValType, depth int) *node {
	g.budget--
	choice := g.intn(23)
	if depth > 4 || g.budget <= 0 {
		choice %= 3
	}
	ti := typeIndex(t)
	switch choice {
	default:
		return &node{k: kConst, t: t, n: g.constant(t)}
	case 1, 2:
		return &node{k: kLocalGet, t: t, n: g.local(t)}
	case 3:
		return &node{k: kGlobalGet, t: t, n: uint64(ti)}
	case 4, 5, 6, 16, 17:
		op := g.intn(len(binOps[ti]))
		n := &node{k: kBin, t: t, op: binOps[ti][op], kids: []*node{g.expr(t, depth+1), g.expr(t, depth+1)}}
		if op >= 3 && op <= 6 && g.byte()&3 != 0 { // div/rem: mostly keep the divisor off zero
			n.kids[1] = &node{k: kBin, t: t, op: binOps[ti][8], kids: []*node{n.kids[1], {k: kConst, t: t, n: 1}}}
		}
		return n
	case 7:
		if t == i32 { // a comparison, of either operand type
			ot := []wasm.ValType{i32, i64}[g.intn(2)]
			ops := cmpOps[typeIndex(ot)]
			return &node{k: kBin, t: i32, op: ops[g.intn(len(ops))], kids: []*node{g.expr(ot, depth+1), g.expr(ot, depth+1)}}
		}
		return &node{k: kUn, t: i64, op: []byte{0xAC, 0xAD}[g.intn(2)], kids: []*node{g.expr(i32, depth+1)}} // extend_i32_s/u
	case 8:
		if t == i32 && g.byte()&1 == 1 { // eqz or wrap
			ot := []wasm.ValType{i32, i64}[g.intn(2)]
			return &node{k: kUn, t: i32, op: []byte{0x45, 0x50}[typeIndex(ot)], kids: []*node{g.expr(ot, depth+1)}}
		} else if t == i32 && g.byte()&1 == 1 {
			return &node{k: kUn, t: i32, op: 0xA7, kids: []*node{g.expr(i64, depth+1)}}
		}
		return &node{k: kUn, t: t, op: unOps[ti][g.intn(len(unOps[ti]))], kids: []*node{g.expr(t, depth+1)}}
	case 9:
		return &node{k: kSelect, t: t, kids: []*node{g.expr(t, depth+1), g.expr(t, depth+1), g.expr(i32, depth+1)}}
	case 10:
		cond := g.expr(i32, depth+1)
		g.labels = append(g.labels, label{t: t})
		n := &node{k: kIfElse, t: t, kids: []*node{cond, g.blockVal(t, depth+1), g.blockVal(t, depth+1)}}
		g.labels = g.labels[:len(g.labels)-1]
		return n
	case 11:
		return &node{k: kLoad, t: t, op: loadOps[ti][g.intn(len(loadOps[ti]))], n: offsets[g.intn(len(offsets))], kids: []*node{g.address(depth + 1)}}
	case 12:
		if t == i64 {
			return &node{k: kCall, t: i64, n: uint64(g.intn(2)) & b2u(g.calls), kids: []*node{g.expr(i32, depth+1), g.expr(i64, depth+1)}}
		}
		if g.byte()&1 == 1 {
			return &node{k: kMemGrow, t: i32, kids: []*node{{k: kConst, t: i32, n: uint64(g.intn(3))}}}
		}
		return &node{k: kMemSize, t: i32}
	case 13, 18, 19:
		return &node{k: kLocalTee, t: t, n: g.local(t), kids: []*node{g.expr(t, depth+1)}}
	case 14:
		g.labels = append(g.labels, label{t: t})
		n := g.blockVal(t, depth+1)
		g.labels = g.labels[:len(g.labels)-1]
		return n
	case 22:
		ot := []wasm.ValType{i32, i64}[g.intn(2)]
		return &node{k: kFirst, t: t, kids: []*node{g.expr(t, depth+1), g.expr(ot, depth+1)}}
	case 15:
		if d, ok := g.target(t); ok {
			return &node{k: kBrIfVal, t: t, n: d, kids: []*node{g.expr(t, depth+1), g.expr(i32, depth+1)}}
		}
		return &node{k: kLocalGet, t: t, n: g.local(t)}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// address yields an i32 that is often close to the end of memory.
func (g *gen) address(depth int) *node {
	switch c := g.byte() & 7; {
	case c == 0:
		return &node{k: kConst, t: i32, n: g.constant(i32)}
	case c <= 2: // the last bytes of the first page, and just past it
		return &node{k: kConst, t: i32, n: uint64(wasm.PageSize - 9 + g.intn(11))}
	}
	mask := &node{k: kConst, t: i32, n: wasm.PageSize - 1}
	return &node{k: kBin, t: i32, op: 0x71, kids: []*node{g.expr(i32, depth+1), mask}}
}

// blockVal is statements followed by a value: the body of a block, an if
// arm, or a function. The caller has pushed its label.
func (g *gen) blockVal(t wasm.ValType, depth int) *node {
	n := &node{k: kBlockVal, t: t}
	if s := g.seq(depth); s.kids != nil {
		n.kids = s.kids
		if last := s.kids[len(s.kids)-1]; last.k == kDead {
			return n // the value's place is unreachable; kDead leaves the stack polymorphic
		}
	}
	n.kids = append(n.kids, g.expr(t, depth+1))
	return n
}

// seq is up to four statements; an unconditional transfer ends it, with a
// kDead behind it.
func (g *gen) seq(depth int) *node {
	s := &node{k: kSeq}
	for i := g.intn(5); i > 0 && g.budget > 0 && depth <= 4; i-- {
		st := g.stmt(depth + 1)
		s.kids = append(s.kids, st)
		switch st.k {
		case kBr, kBrTable, kReturn, kTrap:
			s.kids = append(s.kids, &node{k: kDead, n: uint64(g.intn(4)), aux: uint32(g.local(i64))})
			return s
		}
	}
	return s
}

func (g *gen) stmt(depth int) *node {
	g.budget--
	t := []wasm.ValType{i32, i64}[g.intn(2)]
	ti := typeIndex(t)
	switch g.intn(20) {
	default:
		return &node{k: kLocalSet, n: g.local(t), kids: []*node{g.expr(t, depth)}}
	case 2:
		return &node{k: kGlobalSet, n: uint64(ti), kids: []*node{g.expr(t, depth)}}
	case 3, 4:
		return &node{k: kStore, op: storeOps[ti][g.intn(len(storeOps[ti]))], n: offsets[g.intn(len(offsets))],
			kids: []*node{g.address(depth), g.expr(t, depth)}}
	case 5:
		return &node{k: kDrop, kids: []*node{g.expr(t, depth)}}
	case 6, 14:
		cond := g.expr(i32, depth)
		g.labels = append(g.labels, label{})
		n := &node{k: kIf, kids: []*node{cond, g.seq(depth), g.seq(depth)}}
		g.labels = g.labels[:len(g.labels)-1]
		return n
	case 7, 15:
		if g.loops >= 2 {
			return &node{k: kDrop, kids: []*node{g.expr(t, depth)}}
		}
		// block { loop { if counter == 0 break; counter--; body; continue } }:
		// the body may branch to either label and still terminates.
		g.loops++
		g.f.locals = append(g.f.locals, i32)
		n := &node{k: kLoop, n: uint64(1 + g.intn(4)), aux: uint32(len(g.f.locals) - 1)}
		g.labels = append(g.labels, label{}, label{loop: true})
		n.kids = []*node{g.seq(depth)}
		g.labels = g.labels[:len(g.labels)-2]
		g.loops--
		return n
	case 8:
		g.labels = append(g.labels, label{})
		n := &node{k: kBlock, kids: []*node{g.seq(depth)}}
		g.labels = g.labels[:len(g.labels)-1]
		return n
	case 9:
		if d, ok := g.target(t); ok && g.byte()&1 == 1 {
			return &node{k: kBr, n: d, kids: []*node{g.expr(t, depth)}}
		} else if d, ok := g.target(0); ok {
			return &node{k: kBr, n: d}
		}
		return &node{k: kDrop, kids: []*node{g.expr(t, depth)}}
	case 10, 16:
		if d, ok := g.target(0); ok {
			return &node{k: kBrIf, n: d, kids: []*node{g.expr(i32, depth)}}
		}
		return &node{k: kDrop, kids: []*node{g.expr(t, depth)}}
	case 11:
		carried := wasm.ValType(0)
		if g.byte()&1 == 1 {
			carried = t
		}
		def, ok := g.target(carried)
		if !ok {
			return &node{k: kReturn, kids: []*node{g.expr(i64, depth)}}
		}
		n := &node{k: kBrTable, n: def}
		for i := g.intn(4); i > 0; i-- {
			d, _ := g.target(carried)
			n.tbl = append(n.tbl, uint32(d))
		}
		if carried != 0 {
			n.kids = append(n.kids, g.expr(carried, depth))
		}
		n.kids = append(n.kids, &node{k: kBin, t: i32, op: 0x70, kids: []*node{g.expr(i32, depth), {k: kConst, t: i32, n: 5}}}) // index % 5
		return n
	case 12:
		return &node{k: kReturn, kids: []*node{g.expr(i64, depth)}}
	case 13:
		if g.byte()&7 == 0 {
			return &node{k: kTrap}
		}
		return &node{k: kDrop, kids: []*node{{k: kMemGrow, t: i32, kids: []*node{{k: kConst, t: i32, n: uint64(g.intn(2))}}}}}
	}
}

// ---------------------------------------------------------------------------
// Emitter: the tree as a module.

func (p *program) module() []byte {
	b := wasmbuild.New()
	host := b.ImportFunc("env", "h", []wasm.ValType{i32, i64}, []wasm.ValType{i64})
	b.Memory(fuzzMinPages, fuzzMaxPages, "memory")
	globals := []wasmbuild.GlobalRef{b.Global("g0", i32, true, fuzzGlobal0), b.Global("g1", i64, true, fuzzGlobal1)}
	helper := b.NewFunc("helper", []wasm.ValType{i32, i64}, []wasm.ValType{i64})
	main := b.NewFunc("main", []wasm.ValType{i32, i64}, []wasm.ValType{i64})
	for i, fb := range []*wasmbuild.FuncBuilder{helper, main} {
		f := []*fn{p.helper, p.main}[i]
		for _, t := range f.locals[2:] {
			fb.AddLocal(t)
		}
		e := &emitter{f: fb, globals: globals, callees: []wasmbuild.FuncRef{host, helper.Ref()}}
		e.all(f.body.kids) // the builder closes the function's own block
	}
	return b.Build()
}

type emitter struct {
	f       *wasmbuild.FuncBuilder
	globals []wasmbuild.GlobalRef
	callees []wasmbuild.FuncRef
}

func (e *emitter) all(nodes []*node) {
	for _, n := range nodes {
		e.emit(n)
	}
}

func (e *emitter) emit(n *node) {
	f := e.f
	switch n.k {
	case kConst:
		if n.t == i32 {
			f.I32Const(int32(n.n))
		} else {
			f.I64Const(int64(n.n))
		}
	case kLocalGet:
		f.LocalGet(uint32(n.n))
	case kLocalTee:
		e.all(n.kids)
		f.LocalTee(uint32(n.n))
	case kLocalSet:
		e.all(n.kids)
		f.LocalSet(uint32(n.n))
	case kGlobalGet:
		f.GlobalGet(e.globals[n.n])
	case kGlobalSet:
		e.all(n.kids)
		f.GlobalSet(e.globals[n.n])
	case kUn, kBin:
		e.all(n.kids)
		f.Raw(n.op)
	case kSelect:
		e.all(n.kids)
		f.Select()
	case kLoad, kStore:
		e.all(n.kids)
		f.Raw(wasm.AppendUleb128([]byte{n.op, 0}, n.n)...) // memarg: align 0, offset
	case kMemSize:
		f.MemorySize()
	case kMemGrow:
		e.all(n.kids)
		f.MemoryGrow()
	case kCall:
		e.all(n.kids)
		f.Call(e.callees[n.n])
	case kDrop, kFirst:
		e.all(n.kids)
		f.Drop()
	case kIfElse:
		e.emit(n.kids[0])
		f.IfT(n.t)
		e.all(n.kids[1].kids)
		f.Else()
		e.all(n.kids[2].kids)
		f.End()
	case kIf:
		e.emit(n.kids[0])
		f.If()
		e.all(n.kids[1].kids)
		f.Else()
		e.all(n.kids[2].kids)
		f.End()
	case kBlockVal:
		f.BlockT(n.t)
		e.all(n.kids)
		f.End()
	case kBlock:
		f.Block()
		e.all(n.kids[0].kids)
		f.End()
	case kLoop:
		c := n.aux
		f.I32Const(int32(n.n)).LocalSet(c).
			Block().Loop().
			LocalGet(c).I32Eqz().BrIf(1).
			LocalGet(c).I32Const(1).I32Sub().LocalSet(c)
		e.all(n.kids[0].kids)
		f.Br(0).End().End()
	case kBr:
		e.all(n.kids)
		f.Br(uint32(n.n))
	case kBrIf, kBrIfVal:
		e.all(n.kids)
		f.BrIf(uint32(n.n))
	case kBrTable:
		e.all(n.kids)
		f.BrTable(n.tbl, uint32(n.n))
	case kReturn:
		e.all(n.kids)
		f.Return()
	case kTrap:
		f.Unreachable()
	case kDead: // all valid on a polymorphic stack, all leave it empty
		switch n.n {
		case 0:
			f.I32Add().Drop() // arithmetic on operands that do not exist
		case 1:
			f.Block().Unreachable().End() // a block nothing can enter, unreachable before its end
		case 2:
			f.I64Const(7).LocalSet(n.aux) // a store that must not happen
		case 3:
			f.I32Const(1).BrIf(0).Unreachable() // a branch out of dead code
		}
	default:
		panic(fmt.Sprintf("emit: kind %d", n.k))
	}
}

// ---------------------------------------------------------------------------
// Evaluator: the oracle. It walks the tree; WebAssembly's structured control
// flow becomes Go's: a label is a function call that recovers the branch
// aimed at it.

type (
	branch   struct{ depth, val uint64 }
	returned struct{ val uint64 }
	trapped  struct{ err error }
)

type evaluator struct {
	p         *program
	mem       []byte
	globals   [2]uint64
	locals    []uint64
	hostCalls int
}

func newEvaluator(p *program) *evaluator {
	return &evaluator{p: p, mem: make([]byte, fuzzMinPages*wasm.PageSize), globals: [2]uint64{fuzzGlobal0, fuzzGlobal1}}
}

func (ev *evaluator) run() (res uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			t, ok := r.(trapped)
			if !ok {
				panic(r)
			}
			err = t.err
		}
	}()
	return ev.call(ev.p.main, uint64(ev.p.arg0), ev.p.arg1), nil
}

func (ev *evaluator) call(f *fn, a, b uint64) (res uint64) {
	caller := ev.locals
	ev.locals = make([]uint64, len(f.locals))
	ev.locals[0], ev.locals[1] = a, b
	defer func() {
		ev.locals = caller
		switch r := recover().(type) {
		case nil:
		case returned:
			res = r.val
		default:
			panic(r)
		}
	}()
	return scope(func() uint64 { return ev.body(f.body.kids) })
}

// scope runs body as the inside of a block, if or function: a branch of
// depth 0 ends it with the carried value, a deeper one passes through one
// level shallower.
func scope(body func() uint64) (v uint64) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case branch:
			if r.depth > 0 {
				panic(branch{r.depth - 1, r.val})
			}
			v = r.val
		default:
			panic(r)
		}
	}()
	return body()
}

// body evaluates statements and yields the value of the last node.
func (ev *evaluator) body(nodes []*node) (v uint64) {
	for _, n := range nodes {
		v = ev.eval(n)
	}
	return v
}

func (ev *evaluator) trap(err error) { panic(trapped{err}) }

func (ev *evaluator) grow(delta uint64) uint64 {
	pages := uint64(len(ev.mem) / wasm.PageSize)
	if pages+delta > fuzzMaxPages {
		return math.MaxUint32
	}
	ev.mem = append(ev.mem, make([]byte, delta*wasm.PageSize)...)
	return pages
}

// access returns the bytes a load or store of the given width touches.
func (ev *evaluator) access(addr, offset uint64, width int) []byte {
	ea := uint64(uint32(addr)) + offset
	if ea+uint64(width) > uint64(len(ev.mem)) {
		ev.trap(wasm.TrapOutOfBounds)
	}
	return ev.mem[ea : ea+uint64(width)]
}

// memShape gives the width in bytes of each integer load and store, and
// whether the load sign-extends.
var memShape = map[byte]struct {
	width  int
	signed bool
}{
	0x28: {4, false}, 0x29: {8, false}, 0x2C: {1, true}, 0x2D: {1, false}, 0x2E: {2, true}, 0x2F: {2, false},
	0x30: {1, true}, 0x31: {1, false}, 0x32: {2, true}, 0x33: {2, false}, 0x34: {4, true}, 0x35: {4, false},
	0x36: {4, false}, 0x37: {8, false}, 0x3A: {1, false}, 0x3B: {2, false}, 0x3C: {1, false}, 0x3D: {2, false}, 0x3E: {4, false},
}

func (ev *evaluator) eval(n *node) uint64 {
	kid := func(i int) uint64 { return ev.eval(n.kids[i]) }
	mask := func(v uint64) uint64 {
		if n.t == i32 {
			return uint64(uint32(v))
		}
		return v
	}
	switch n.k {
	case kConst:
		return n.n
	case kLocalGet:
		return ev.locals[n.n]
	case kLocalTee, kLocalSet:
		ev.locals[n.n] = kid(0)
		return ev.locals[n.n]
	case kGlobalGet:
		return ev.globals[n.n]
	case kGlobalSet:
		ev.globals[n.n] = kid(0)
	case kUn:
		return ev.unary(n.op, kid(0))
	case kBin:
		a := kid(0)
		return ev.binary(n.op, a, kid(1))
	case kSelect:
		v1, v2 := kid(0), kid(1)
		if uint32(kid(2)) != 0 {
			return v1
		}
		return v2
	case kIfElse, kIf:
		arm := n.kids[2]
		if uint32(kid(0)) != 0 {
			arm = n.kids[1]
		}
		return scope(func() uint64 { return ev.body(arm.kids) })
	case kLoad:
		shape := memShape[n.op]
		var v uint64
		for i, b := range ev.access(kid(0), n.n, shape.width) {
			v |= uint64(b) << (8 * i)
		}
		if shift := 64 - 8*shape.width; shape.signed {
			v = uint64(int64(v<<shift) >> shift)
		}
		return mask(v)
	case kStore:
		addr, v := kid(0), kid(1)
		for i, dst := 0, ev.access(addr, n.n, memShape[n.op].width); i < len(dst); i++ {
			dst[i] = byte(v >> (8 * i))
		}
	case kMemSize:
		return uint64(len(ev.mem) / wasm.PageSize)
	case kMemGrow:
		return ev.grow(kid(0))
	case kCall:
		a, b := kid(0), kid(1)
		if n.n == 1 {
			return ev.call(ev.p.helper, a, b)
		}
		ev.hostCalls++
		res, grow := hostEffect(uint32(a), b, ev.hostCalls)
		if grow {
			ev.grow(1)
		}
		return res
	case kDrop:
		kid(0)
	case kFirst:
		v := kid(0)
		kid(1)
		return v
	case kBlockVal:
		return scope(func() uint64 { return ev.body(n.kids) })
	case kBlock:
		scope(func() uint64 { return ev.body(n.kids[0].kids) })
	case kLoop:
		// The emitted shape is block { loop { exit when the counter is 0;
		// count down; body; continue } }.
		ev.locals[n.aux] = n.n
		scope(func() uint64 {
			for {
				scope(func() uint64 {
					if ev.locals[n.aux] == 0 {
						panic(branch{depth: 1})
					}
					ev.locals[n.aux]--
					return ev.body(n.kids[0].kids)
				})
			}
		})
	case kBr:
		panic(branch{n.n, ev.body(n.kids)})
	case kBrIf:
		if uint32(kid(0)) != 0 {
			panic(branch{depth: n.n})
		}
	case kBrIfVal:
		v := kid(0)
		if uint32(kid(1)) != 0 {
			panic(branch{n.n, v})
		}
		return v
	case kBrTable:
		var v uint64
		if len(n.kids) == 2 {
			v = kid(0)
		}
		depth := n.n
		if i := uint32(kid(len(n.kids) - 1)); int(i) < len(n.tbl) {
			depth = uint64(n.tbl[i])
		}
		panic(branch{depth, v})
	case kReturn:
		panic(returned{kid(0)})
	case kTrap:
		ev.trap(wasm.TrapUnreachable)
	default:
		panic(fmt.Sprintf("the oracle reached a node of kind %d, which cannot execute", n.k))
	}
	return 0
}

func (ev *evaluator) unary(op byte, v uint64) uint64 {
	switch op {
	case 0x45:
		return b2u(uint32(v) == 0)
	case 0x50:
		return b2u(v == 0)
	case 0x67:
		return uint64(bits.LeadingZeros32(uint32(v)))
	case 0x68:
		return uint64(bits.TrailingZeros32(uint32(v)))
	case 0x69:
		return uint64(bits.OnesCount32(uint32(v)))
	case 0x79:
		return uint64(bits.LeadingZeros64(v))
	case 0x7A:
		return uint64(bits.TrailingZeros64(v))
	case 0x7B:
		return uint64(bits.OnesCount64(v))
	case 0xA7, 0xAD: // wrap, extend_i32_u
		return uint64(uint32(v))
	case 0xAC, 0xC4: // extend_i32_s, i64.extend32_s
		return uint64(int64(int32(v)))
	case 0xC0:
		return uint64(uint32(int32(int8(v))))
	case 0xC1:
		return uint64(uint32(int32(int16(v))))
	case 0xC2:
		return uint64(int64(int8(v)))
	case 0xC3:
		return uint64(int64(int16(v)))
	}
	panic(fmt.Sprintf("unary op %#x", op))
}

// binary evaluates i32 and i64 arithmetic and comparisons in 64-bit
// arithmetic over the sign- and zero-extended operands, then wraps.
func (ev *evaluator) binary(op byte, a, b uint64) uint64 {
	width, base := uint64(64), op
	switch {
	case op >= 0x46 && op <= 0x4F:
		width, base = 32, op-0x46+0x51
	case op >= 0x6A && op <= 0x78:
		width, base = 32, op-0x6A+0x7C
	}
	ua, ub, sa, sb := a, b, int64(a), int64(b)
	if width == 32 {
		ua, ub, sa, sb = uint64(uint32(a)), uint64(uint32(b)), int64(int32(a)), int64(int32(b))
	}
	min := int64(-1) << (width - 1)
	var v uint64
	switch base {
	case 0x51:
		return b2u(ua == ub)
	case 0x52:
		return b2u(ua != ub)
	case 0x53:
		return b2u(sa < sb)
	case 0x54:
		return b2u(ua < ub)
	case 0x55:
		return b2u(sa > sb)
	case 0x56:
		return b2u(ua > ub)
	case 0x57:
		return b2u(sa <= sb)
	case 0x58:
		return b2u(ua <= ub)
	case 0x59:
		return b2u(sa >= sb)
	case 0x5A:
		return b2u(ua >= ub)
	case 0x7C:
		v = ua + ub
	case 0x7D:
		v = ua - ub
	case 0x7E:
		v = ua * ub
	case 0x7F, 0x80, 0x81, 0x82:
		if ub == 0 {
			ev.trap(wasm.TrapDivByZero)
		}
		switch {
		case base == 0x80:
			v = ua / ub
		case base == 0x82:
			v = ua % ub
		case sb == -1 && base == 0x81:
			v = 0
		case sb == -1 && sa == min:
			ev.trap(wasm.TrapIntegerOverflow)
		case base == 0x7F:
			v = uint64(sa / sb)
		default:
			v = uint64(sa % sb)
		}
	case 0x83:
		v = ua & ub
	case 0x84:
		v = ua | ub
	case 0x85:
		v = ua ^ ub
	case 0x86:
		v = ua << (ub % width)
	case 0x87:
		v = uint64(sa >> (ub % width))
	case 0x88:
		v = ua >> (ub % width)
	case 0x89, 0x8A:
		k := ub % width
		if base == 0x8A {
			k = (width - k) % width
		}
		v = ua<<k | ua>>((width-k)%width)
		if k == 0 {
			v = ua
		}
	default:
		panic(fmt.Sprintf("binary op %#x", op))
	}
	if width == 32 {
		v = uint64(uint32(v))
	}
	return v
}

// ---------------------------------------------------------------------------
// Seed corpus.

// deadCodeModules are FuzzDecodeValidate's seeds: one module per dead-code
// shape the lowerer skips.
func deadCodeModules() [][]byte {
	var out [][]byte
	for _, build := range []func(f *wasmbuild.FuncBuilder){
		// br, then arithmetic on the polymorphic stack
		func(f *wasmbuild.FuncBuilder) { f.BlockT(i32).I32Const(1).Br(0).I32Add().I32Mul().End() },
		// unreachable right before end
		func(f *wasmbuild.FuncBuilder) { f.Block().Unreachable().End().I32Const(2) },
		// return inside if, then ill-typed but dead code
		func(f *wasmbuild.FuncBuilder) {
			f.LocalGet(0).If().I32Const(3).Return().I64Const(1).Drop().End().I32Const(4)
		},
		// whole blocks behind br_table
		func(f *wasmbuild.FuncBuilder) {
			f.Block().Block().LocalGet(0).BrTable([]uint32{0}, 1).Block().Loop().Br(0).End().End().End().End().I32Const(5)
		},
	} {
		b := wasmbuild.New()
		b.Memory(1, 1, "memory")
		build(b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i32}))
		out = append(out, b.Build())
	}
	return out
}

// seedShapes names, for each seed committed under
// testdata/fuzz/FuzzExecAgainstTreeEval, the construct its program contains.
var seedShapes = map[string]func(n *node) bool{
	"dead-arithmetic":   func(n *node) bool { return n.k == kDead && n.n == 0 },
	"dead-block":        func(n *node) bool { return n.k == kDead && n.n == 1 },
	"dead-store":        func(n *node) bool { return n.k == kDead && n.n == 2 },
	"dead-branch":       func(n *node) bool { return n.k == kDead && n.n == 3 },
	"grow-in-loop":      func(n *node) bool { return n.k == kLoop && has(n, func(n *node) bool { return n.k == kMemGrow }) },
	"store-in-loop":     func(n *node) bool { return n.k == kLoop && has(n, func(n *node) bool { return n.k == kStore }) },
	"br-table-value":    func(n *node) bool { return n.k == kBrTable && len(n.kids) == 2 && len(n.tbl) > 1 },
	"br-if-value-depth": func(n *node) bool { return n.k == kBrIfVal && n.n >= 2 },
	"br-value-depth":    func(n *node) bool { return n.k == kBr && len(n.kids) == 1 && n.n >= 2 },
	"call-helper":       func(n *node) bool { return n.k == kCall && n.n == 1 },
	"call-host":         func(n *node) bool { return n.k == kCall && n.n == 0 },
	"if-else-value":     func(n *node) bool { return n.k == kIfElse },
	"select":            func(n *node) bool { return n.k == kSelect },
}

// The committed seeds are generator inputs, so an edit to the generator
// changes the programs they stand for. Each must still give a program that
// contains the construct it is named for and runs to completion; a stale
// seed fails with an input to commit in its place. FuzzDecodeValidate's
// built seeds must validate, or they exercise nothing.
func TestFuzzSeedsHoldTheirShapes(t *testing.T) {
	holds := func(data []byte, match func(*node) bool) bool {
		p := generate(data)
		_, err := newEvaluator(p).run()
		return err == nil && has(p.main.body, match)
	}
	for i, bin := range deadCodeModules() {
		if _, err := wasm.Decode(bin); err != nil {
			t.Errorf("dead-code module %d: %v", i, err)
		}
	}
	for name, match := range seedShapes {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzExecAgainstTreeEval", name))
		if err != nil {
			t.Error(err)
			continue
		}
		body, _ := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(body, ")"))
		if err != nil {
			t.Errorf("seed %s: not a []byte corpus file: %v", name, err)
			continue
		}
		if holds([]byte(data), match) {
			continue
		}
		var rng uint64 = 17
		next := pseudoRandom(&rng, 96)
		for tries := 0; tries < 200000 && !holds(next, match); tries++ {
			next = pseudoRandom(&rng, 96)
		}
		t.Errorf("seed %s no longer contains its construct; replace the file with\ngo test fuzz v1\n[]byte(%q)", name, next)
	}
}

func has(n *node, match func(*node) bool) bool {
	if match(n) {
		return true
	}
	for _, k := range n.kids {
		if has(k, match) {
			return true
		}
	}
	return false
}
