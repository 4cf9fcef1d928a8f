package wasm_test

import (
	"errors"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasmbuild"
)

// These tests pin properties a rewrite of the interpreter can lose without
// any test in wasm_test.go noticing.

var (
	i32 = wasm.I32
	i64 = wasm.I64
)

// The interpreter caches the memory's backing array; memory.grow replaces
// it. A store loop that grows memory half-way must see the new pages, and
// what it wrote before must have moved with them.
func TestGrowInsideStoreLoopSeesNewPages(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 4, "memory")
	// fill(n): for p := 0; p < n; p += 8 { if p == 65536-8 { grow(1) }; mem[p] = p }
	f := b.NewFunc("fill", []wasm.ValType{i32}, []wasm.ValType{i32})
	p := f.AddLocal(i32)
	f.Block().Loop().
		LocalGet(p).LocalGet(0).I32GeU().BrIf(1).
		LocalGet(p).I32Const(wasm.PageSize - 8).I32Eq().
		If().I32Const(1).MemoryGrow().Drop().End().
		LocalGet(p).LocalGet(p).I64ExtendI32U().I64Store(0).
		LocalGet(p).I32Const(8).I32Add().LocalSet(p).
		Br(0).End().End().
		MemorySize()
	inst := instantiate(t, b, nil)
	if got := call1(t, inst, "fill", 2*wasm.PageSize); got != 2 {
		t.Fatalf("pages after fill = %d, want 2", got)
	}
	for _, at := range []uint32{0, 8, wasm.PageSize - 16, wasm.PageSize - 8, wasm.PageSize, 2*wasm.PageSize - 8} {
		v, err := inst.Memory().View(at, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got := uint32(v[0]) | uint32(v[1])<<8 | uint32(v[2])<<16 | uint32(v[3])<<24; got != at {
			t.Fatalf("mem[%d] = %d: a store went to a stale backing array", at, got)
		}
	}
	// A fill that stops short of the last word never grows.
	if got := call1(t, instantiate(t, b, nil), "fill", wasm.PageSize-8); got != 1 {
		t.Fatalf("pages after a short fill = %d, want 1", got)
	}
}

// A host function may grow the calling instance's memory; the caller's next
// access must reach the new pages.
func TestHostCallGrowingMemoryIsSeenByCaller(t *testing.T) {
	b := wasmbuild.New()
	grow := b.ImportFunc("env", "grow", nil, nil)
	b.Memory(1, 2, "memory")
	f := b.NewFunc("f", nil, []wasm.ValType{i64})
	f.I32Const(8).I64Const(7).I64Store(0). // touch memory first so a stale view would exist
						Call(grow).
						I32Const(wasm.PageSize + 8).I64Const(35).I64Store(0).
						I32Const(8).I64Load(0).I32Const(wasm.PageSize + 8).I64Load(0).I64Add()
	imports := wasm.Imports{}
	imports.Add("env", "grow", wasm.HostFunc{Fn: func(ctx *wasm.HostContext, _ []uint64) ([]uint64, error) {
		if ctx.Memory().Grow(1) != 1 {
			t.Error("host grow failed")
		}
		return nil, nil
	}})
	inst := instantiate(t, b, imports)
	if got := call1(t, inst, "f"); got != 42 {
		t.Fatalf("f = %d, want 42", got)
	}
}

// recursive builds down(n) = n == 0 ? 0 : 1 + down(n-1): n+1 frames deep.
func recursive(t *testing.T, cfg *wasm.Config) *wasm.Func {
	t.Helper()
	b := wasmbuild.New()
	f := b.NewFunc("down", []wasm.ValType{i32}, []wasm.ValType{i32})
	f.LocalGet(0).I32Eqz().
		IfT(i32).I32Const(0).
		Else().LocalGet(0).I32Const(1).I32Sub().Call(f.Ref()).I32Const(1).I32Add().
		End()
	m, err := wasm.Decode(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wasm.Instantiate(m, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := inst.Func("down")
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// The call-depth trap fires at depth > MaxCallDepth with the entry call at
// depth 0: down(512) is 513 frames, the deepest allowed by the default 512.
func TestCallDepthTrapsExactly(t *testing.T) {
	for _, tc := range []struct {
		cfg      *wasm.Config
		deepest  uint64
		tooDeep  uint64
		describe string
	}{
		{nil, 512, 513, "default"},
		{&wasm.Config{MaxCallDepth: 7}, 7, 8, "MaxCallDepth 7"},
	} {
		down := recursive(t, tc.cfg)
		res, err := down.Call(tc.deepest)
		if err != nil || res[0] != tc.deepest {
			t.Fatalf("%s: down(%d) = %v, %v", tc.describe, tc.deepest, res, err)
		}
		if _, err := down.Call(tc.tooDeep); !errors.Is(err, wasm.TrapCallDepth) {
			t.Fatalf("%s: down(%d) = %v, want TrapCallDepth", tc.describe, tc.tooDeep, err)
		}
		// The trap leaves the instance usable, at full depth.
		if res, err := down.Call(tc.deepest); err != nil || res[0] != tc.deepest {
			t.Fatalf("%s: after trap down(%d) = %v, %v", tc.describe, tc.deepest, res, err)
		}
	}
}

// The frames one call tree grew are reused by the next.
func TestRecursionReusesFrames(t *testing.T) {
	down := recursive(t, nil)
	args := []uint64{400}
	if _, err := down.Call(args...); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := down.Call(args...); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("second descent allocates %v times, want 0", allocs)
	}
}

// A branch out of three nested blocks carries its value past operands parked
// at every level: it must land in the outermost block's result slot, under
// nothing, and the operand below that block must survive.
func TestBranchValueLandsBelowExtraOperands(t *testing.T) {
	for form, want := range map[string][2]uint64{
		"br":       {1000, 1020}, // always leaves all three blocks with 5x
		"br_if":    {1006, 1020}, // x = 0 falls through: 1000 + 1 + 2 + (3 + 0)
		"br_table": {1003, 1020}, // x = 0 leaves the innermost block only: 1000 + 1 + 2 + 0
	} {
		b := wasmbuild.New()
		f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i32})
		f.I32Const(1000).
			BlockT(i32).I32Const(1).
			BlockT(i32).I32Const(2).
			BlockT(i32).I32Const(3).
			LocalGet(0).I32Const(5).I32Mul() // the carried value, above the 3
		switch form {
		case "br":
			f.Br(2)
		case "br_if":
			f.LocalGet(0).BrIf(2).I32Add()
		case "br_table":
			f.LocalGet(0).BrTable([]uint32{0, 2}, 2)
		}
		f.End().I32Add().End().I32Add().End().I32Add()
		inst := instantiate(t, b, nil)
		for x, w := range want {
			if got := call1(t, inst, "f", uint64(4*x)); got != w {
				t.Errorf("%s: f(%d) = %d, want %d", form, 4*x, got, w)
			}
		}
	}
}

// local.set must not change a value that was read from the local earlier
// and is still on the operand stack — across a tee, a set and a loop.
func TestPendingLocalReadsSurviveWrites(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i32})
	// old := x; x = x*2 (via tee); x = x+1; return old*10000 + tee'd*100...
	f.LocalGet(0). // old x
			LocalGet(0).I32Const(2).I32Mul().LocalTee(0). // 2x, x = 2x
			LocalGet(0).I32Const(1).I32Add().LocalSet(0). // x = 2x+1
			I32Const(100).I32Mul().                       // 2x*100
			I32Add().                                     // old + 200x... order: old, 200x
			LocalGet(0).I32Const(10000).I32Mul().I32Add() // + (2x+1)*10000
	inst := instantiate(t, b, nil)
	if got, want := call1(t, inst, "f", 3), uint64(3+600+70000); got != want {
		t.Fatalf("f(3) = %d, want %d", got, want)
	}

	// A value read before a loop that overwrites the local every iteration.
	b = wasmbuild.New()
	g := b.NewFunc("g", []wasm.ValType{i32}, []wasm.ValType{i32})
	i := g.AddLocal(i32)
	g.LocalGet(0). // read once, used after the loop
			Block().Loop().
			LocalGet(i).I32Const(3).I32GeU().BrIf(1).
			LocalGet(0).I32Const(7).I32Add().LocalSet(0).
			LocalGet(i).I32Const(1).I32Add().LocalSet(i).
			Br(0).End().End().
			LocalGet(0).I32Const(1000).I32Mul().I32Add()
	inst = instantiate(t, b, nil)
	if got, want := call1(t, inst, "g", 5), uint64(5+26000); got != want {
		t.Fatalf("g(5) = %d, want %d", got, want)
	}
}

// Code after br, return and unreachable is validated on a polymorphic stack
// and never lowered; what follows the enclosing end must still run.
func TestDeadCodeIsSkippedNotRun(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i32})
	f.BlockT(i32).
		I32Const(11).Br(0).
		I32Add().I32Const(0).I32DivU(). // dead: would underflow, then trap
		Block().Unreachable().End().    // dead block
		End().
		LocalGet(0).
		If().I32Const(5).Return().I64Const(1).Drop().End(). // return inside if, dead tail
		I32Const(1).I32Add()
	u := b.NewFunc("u", nil, []wasm.ValType{i32})
	u.Block().Unreachable().I32Const(1).Drop().End().I32Const(9) // unreachable before end
	inst := instantiate(t, b, nil)
	if got := call1(t, inst, "f", 0); got != 12 {
		t.Fatalf("f(0) = %d, want 12", got)
	}
	if got := call1(t, inst, "f", 1); got != 5 {
		t.Fatalf("f(1) = %d, want 5", got)
	}
	if _, err := inst.Call("u"); !errors.Is(err, wasm.TrapUnreachable) {
		t.Fatalf("u = %v, want TrapUnreachable", err)
	}
}

// Two instances of one module share nothing but code.
func TestInstancesShareNoState(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 2, "memory")
	g := b.Global("g", i64, true, 5)
	f := b.NewFunc("bump", []wasm.ValType{i64}, []wasm.ValType{i64})
	// g += x; mem[0] += x; grow by one page when x is odd; return g + mem[0]
	f.GlobalGet(g).LocalGet(0).I64Add().GlobalSet(g).
		I32Const(0).I32Const(0).I64Load(0).LocalGet(0).I64Add().I64Store(0).
		LocalGet(0).I32WrapI64().I32Const(1).I32And().If().I32Const(1).MemoryGrow().Drop().End().
		GlobalGet(g).I32Const(0).I64Load(0).I64Add()
	m, err := wasm.Decode(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	one, err := wasm.Instantiate(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	two, err := wasm.Instantiate(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := call1(t, one, "bump", 3); got != 11 {
		t.Fatalf("one.bump(3) = %d", got)
	}
	if got := call1(t, two, "bump", 10); got != 25 {
		t.Fatalf("two.bump(10) = %d: state leaked from the first instance", got)
	}
	if one.Memory().Pages() != 2 || two.Memory().Pages() != 1 {
		t.Fatalf("pages = %d, %d, want 2, 1", one.Memory().Pages(), two.Memory().Pages())
	}
	// Results alias the instance's own frame: a call on one instance must
	// not disturb results the other returned.
	r1, err := one.Call("bump", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := two.Call("bump", 0); err != nil {
		t.Fatal(err)
	}
	if r1[0] != 11 {
		t.Fatalf("one's result became %d after a call on two", r1[0])
	}
}

// Instances of one module run concurrently on different goroutines over the
// shared compiled bodies (exercised under -race in CI).
func TestSharedModuleConcurrentInstances(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("sum", []wasm.ValType{i32}, []wasm.ValType{i64})
	i := f.AddLocal(i32)
	acc := f.AddLocal(i64)
	f.Block().Loop().
		LocalGet(i).LocalGet(0).I32GeU().BrIf(1).
		LocalGet(acc).LocalGet(i).I64ExtendI32U().I64Add().LocalSet(acc).
		LocalGet(i).I32Const(1).I32Add().LocalSet(i).
		Br(0).End().End().
		LocalGet(acc)
	m, err := wasm.Decode(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 4)
	for g := 0; g < cap(errs); g++ {
		go func(n uint64) {
			inst, err := wasm.Instantiate(m, nil, nil)
			if err == nil {
				var res []uint64
				if res, err = inst.Call("sum", n); err == nil && res[0] != n*(n-1)/2 {
					err = errors.New("wrong sum")
				}
			}
			errs <- err
		}(uint64(1000 + g))
	}
	for g := 0; g < cap(errs); g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// Decode compiles; Instantiate only links. Both instances run the module's
// own compiled bodies.
func TestInstantiateSharesCompiledCode(t *testing.T) {
	m, err := wasm.Decode(guestModuleForValidation(t))
	if err != nil {
		t.Fatal(err)
	}
	imports := wasm.Imports{}
	for _, imp := range m.Imports {
		imports.Add(imp.Module, imp.Name, wasm.HostFunc{Type: m.Types[imp.TypeIndex]})
	}
	one, err := wasm.Instantiate(m, imports, nil)
	if err != nil {
		t.Fatal(err)
	}
	two, err := wasm.Instantiate(m, imports, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !wasm.SharesCode(one, two) {
		t.Fatal("instances of one module do not share its compiled code")
	}
}

// The shape of the lowered code is what the speed-up rests on: an
// instruction is 24 bytes, local.get/const/local.set vanish into operands,
// and compare + br_if is one instruction.
func TestLoweredShape(t *testing.T) {
	if wasm.InstrBytes > 24 {
		t.Fatalf("instr is %d bytes, want <= 24", wasm.InstrBytes)
	}
	b := wasmbuild.New()
	b.Memory(1, 1, "memory")
	bump := b.NewFunc("bump", []wasm.ValType{i32}, []wasm.ValType{i32})
	bump.LocalGet(0).I32Const(8).I32Add().LocalSet(0).LocalGet(0) // s = s + 8; return s
	loop := b.NewFunc("loop", []wasm.ValType{i32, i32}, nil)
	// The guest's produce word loop, minus the LCG step:
	// while s+8 <= end { mem[s] = 1; s += 8 }
	loop.Block().Loop().
		LocalGet(0).I32Const(8).I32Add().LocalGet(1).I32GtU().BrIf(1).
		LocalGet(0).I64Const(1).I64Store(0).
		LocalGet(0).I32Const(8).I32Add().LocalSet(0).
		Br(0).End().End()
	m, err := wasm.Decode(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	// bump: add, move to the result slot, return.
	if got := m.LoweredLen("bump"); got != 3 {
		t.Errorf("bump lowers to %d instructions, want 3", got)
	}
	// loop: add, compare-and-branch, store, add, jump; return.
	if got := m.LoweredLen("loop"); got != 6 {
		t.Errorf("loop lowers to %d instructions, want 6", got)
	}
}

// A value dropped right after it was computed must not leave its
// instruction bound to the operand below it: the local.set (or br_if) that
// follows consumes that older operand.
func TestDropBetweenProducerAndConsumer(t *testing.T) {
	b := wasmbuild.New()
	f := b.NewFunc("set", []wasm.ValType{i32}, []wasm.ValType{i32})
	k := f.AddLocal(i32)
	f.LocalGet(0).I32Const(10).I32Add(). // kept: x+10
						LocalGet(0).I32Const(1).I32Add().Drop(). // computed and dropped: x+1
						LocalSet(k).LocalGet(k)
	g := b.NewFunc("br", []wasm.ValType{i32}, []wasm.ValType{i32})
	g.Block().
		LocalGet(0).I32Const(5).I32LtU().          // kept: x < 5
		LocalGet(0).I32Const(100).I32GtU().Drop(). // computed and dropped: x > 100
		BrIf(0).
		I32Const(1).Return().
		End().I32Const(2)
	inst := instantiate(t, b, nil)
	if got := call1(t, inst, "set", 7); got != 17 {
		t.Fatalf("set(7) = %d, want 17", got)
	}
	for x, want := range map[uint64]uint64{3: 2, 7: 1, 200: 1} {
		if got := call1(t, inst, "br", x); got != want {
			t.Fatalf("br(%d) = %d, want %d", x, got, want)
		}
	}
}

// A branch carrying TWO values out of nested blocks, with extra operands
// below them at every level: both land in the target's result slots, from a
// pending local and a pending constant, on the taken path only.
func TestMultiValueBranchLandsBothResults(t *testing.T) {
	// A falls through with (7, b1+b2), B with (9, x); the branch carries
	// (x, 5). The function returns 1000 + r1 + 100*r2 of A's results.
	viaA := func(x uint64) uint64 { return 1000 + x + 500 }
	viaB := func(x uint64) uint64 { return 1000 + 7 + 100*(x+5) }
	const neither = 1000 + 7 + 100*(9+0) // only reached with x = 0
	for _, tc := range []struct {
		form   string
		branch func(f *wasmbuild.FuncBuilder)
		want   map[uint64]uint64
	}{
		{"br 1", func(f *wasmbuild.FuncBuilder) { f.Br(1) }, map[uint64]uint64{0: viaB(0), 3: viaB(3)}},
		{"br 2", func(f *wasmbuild.FuncBuilder) { f.Br(2) }, map[uint64]uint64{0: viaA(0), 3: viaA(3)}},
		{"br_if 1", func(f *wasmbuild.FuncBuilder) { f.LocalGet(0).BrIf(1).Drop().Drop().Drop() },
			map[uint64]uint64{0: neither, 3: viaB(3)}},
		{"br_if 2", func(f *wasmbuild.FuncBuilder) { f.LocalGet(0).BrIf(2).Drop().Drop().Drop() },
			map[uint64]uint64{0: neither, 3: viaA(3)}},
		{"br_table", func(f *wasmbuild.FuncBuilder) { f.LocalGet(0).BrTable([]uint32{1, 2}, 2) },
			map[uint64]uint64{0: viaB(0), 1: viaA(1), 9: viaA(9)}},
	} {
		b := wasmbuild.New()
		pair := byte(b.TypeOf(nil, []wasm.ValType{i32, i32}))
		f := b.NewFunc("f", []wasm.ValType{i32}, []wasm.ValType{i32})
		f.I32Const(1000).
			Raw(0x02, pair).I32Const(7). // A
			Raw(0x02, pair).I32Const(9). // B
			Block().I32Const(11).
			LocalGet(0).I32Const(5) // the carried pair, above the 11
		tc.branch(f)
		f.End().LocalGet(0).
			End().I32Add().
			End().I32Const(100).I32Mul().I32Add().I32Add()
		inst := instantiate(t, b, nil)
		for x, want := range tc.want {
			if got := call1(t, inst, "f", x); got != want {
				t.Errorf("%s: f(%d) = %d, want %d", tc.form, x, got, want)
			}
		}
	}

	// One extra operand only: the result slots and the carried pair overlap.
	b := wasmbuild.New()
	pair := byte(b.TypeOf(nil, []wasm.ValType{i32, i32}))
	g := b.NewFunc("g", []wasm.ValType{i32}, []wasm.ValType{i32})
	g.Raw(0x02, pair).I32Const(9).
		LocalGet(0).I32Const(1).I32Add().LocalGet(0).I32Const(2).I32Add().Br(0).
		End().I32Const(100).I32Mul().I32Add()
	if got, want := call1(t, instantiate(t, b, nil), "g", 3), uint64(4+500); got != want {
		t.Errorf("g(3) = %d, want %d", got, want)
	}
}

// A call's arguments and a call_indirect's index are taken from wherever the
// lowerer left them — a local, a constant, a slot — with an operand below
// the argument window that the results must not disturb.
func TestCallWindowFromPendingOperands(t *testing.T) {
	three := []wasm.ValType{i32, i32, i32}
	b := wasmbuild.New()
	mix := b.NewFunc("", three, []wasm.ValType{i32}) // a + 10b + 100c
	mix.LocalGet(0).LocalGet(1).I32Const(10).I32Mul().I32Add().LocalGet(2).I32Const(100).I32Mul().I32Add()
	rev := b.NewFunc("", three, []wasm.ValType{i32}) // c + 10b + 100a
	rev.LocalGet(2).LocalGet(1).I32Const(10).I32Mul().I32Add().LocalGet(0).I32Const(100).I32Mul().I32Add()
	b.Table(mix.Ref(), rev.Ref())
	args := func(f *wasmbuild.FuncBuilder) *wasmbuild.FuncBuilder {
		// 5000 stays below the window; a is a pending local, b a pending
		// constant, c is in its slot.
		return f.I32Const(5000).LocalGet(0).I32Const(4).LocalGet(0).I32Const(1).I32Add()
	}
	args(b.NewFunc("by_local", []wasm.ValType{i32, i32}, []wasm.ValType{i32})).
		LocalGet(1).CallIndirect(three, []wasm.ValType{i32}).I32Add()
	args(b.NewFunc("by_const", []wasm.ValType{i32, i32}, []wasm.ValType{i32})).
		I32Const(1).CallIndirect(three, []wasm.ValType{i32}).I32Add()
	args(b.NewFunc("direct", []wasm.ValType{i32, i32}, []wasm.ValType{i32})).
		Call(mix.Ref()).I32Add()
	inst := instantiate(t, b, nil)
	const x = 2
	wantMix, wantRev := uint64(5000+x+40+100*(x+1)), uint64(5000+(x+1)+40+100*x)
	for _, tc := range []struct {
		fn   string
		idx  uint64
		want uint64
	}{
		{"by_local", 0, wantMix}, {"by_local", 1, wantRev},
		{"by_const", 0, wantRev}, {"direct", 0, wantMix},
	} {
		if got := call1(t, inst, tc.fn, x, tc.idx); got != tc.want {
			t.Errorf("%s(%d, %d) = %d, want %d", tc.fn, x, tc.idx, got, tc.want)
		}
	}
	if _, err := inst.Call("by_local", x, 2); !errors.Is(err, wasm.TrapUndefinedElement) {
		t.Errorf("by_local index 2: err = %v, want TrapUndefinedElement", err)
	}
}

// memory.fill and memory.copy read three operands from consecutive slots:
// pending locals and constants have to be put there first.
func TestBulkMemoryFromPendingOperands(t *testing.T) {
	b := wasmbuild.New()
	b.Memory(1, 1, "memory")
	// f(dst, n), with 1000 on the stack below both operand windows.
	f := b.NewFunc("f", []wasm.ValType{i32, i32}, []wasm.ValType{i32})
	f.I32Const(1000)
	f.LocalGet(0).I32Const(0xAB).LocalGet(1).MemoryFill()
	f.LocalGet(0).LocalGet(1).I32Add().LocalGet(0).I32Const(2).MemoryCopy() // 2 bytes on to dst+n
	f.LocalGet(0).I32Load(0).I32Add()
	inst := instantiate(t, b, nil)
	if got, want := call1(t, inst, "f", 16, 2), uint64(1000+0xABABABAB); got != want {
		t.Fatalf("f(16, 2) = %#x, want %#x", got, want)
	}
	if _, err := inst.Call("f", 65535, 2); !errors.Is(err, wasm.TrapOutOfBounds) {
		t.Fatalf("fill past the end: err = %v, want TrapOutOfBounds", err)
	}
}

// A host function that returns a different number of values than its
// declared type is an error, not a stale or overrun result window.
func TestHostResultCountIsChecked(t *testing.T) {
	for _, n := range []int{0, 2} {
		b := wasmbuild.New()
		h := b.ImportFunc("env", "h", nil, []wasm.ValType{i32})
		b.NewFunc("f", nil, []wasm.ValType{i32}).I32Const(7).Call(h).I32Add()
		imports := wasm.Imports{}
		imports.Add("env", "h", wasm.HostFunc{
			Type: wasm.FuncType{Results: []wasm.ValType{i32}},
			Fn:   func(*wasm.HostContext, []uint64) ([]uint64, error) { return make([]uint64, n), nil },
		})
		if _, err := instantiate(t, b, imports).Call("f"); !errors.Is(err, wasm.ErrImportType) {
			t.Errorf("host returning %d values: err = %v, want ErrImportType", n, err)
		}
	}
}
