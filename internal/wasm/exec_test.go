package wasm_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasmbuild"
)

// These tests pin properties a rewrite of the interpreter can lose without
// any test in wasm_test.go noticing.

var (
	i32 = wasm.I32
	i64 = wasm.I64
)

// The constants of the guest kernels' word steps, as variables so that
// products wrap as the guest's do: the LCG step is seed*lcgMul + lcgAdd, the
// FNV step (h ^ word) * fnvPrime.
var lcgMul, lcgAdd, fnvPrime uint64 = 6364136223846793005, 1442695040888963407, 0x100000001b3

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
// compare + br_if is one instruction, and so is each word step of the guest
// kernels: load + xor + multiply, and store + multiply + add; and a run of
// such steps dispatches as one.
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
	if got := len(m.LoweredOps("bump")); got != 3 {
		t.Errorf("bump lowers to %d instructions, want 3", got)
	}
	// loop: add, compare-and-branch, store, add, jump; return.
	if got := len(m.LoweredOps("loop")); got != 6 {
		t.Errorf("loop lowers to %d instructions, want 6", got)
	}

	// The superinstructions form only where nothing can come between their
	// halves and the operands fit the fused form: xorLoad takes its other
	// operand from a slot (the immediate holds the load's offset), mulAdd
	// multiplies by a constant and adds one, xorLoadMul multiplies an xorLoad
	// by a constant, and storeMulAdd is a plain i64.store of x followed, with
	// no label between, by the mulAdd of the same x. Each row runs f(addr, x)
	// with the i64 at addr+8 = w, so a wrong fusion shows as a wrong value
	// too; a row that stores at addr+8 adds the word there back in. No row's
	// jumps may land on an extension word.
	const addr, w, x = 8, 0x0123_4567_89AB_CDEF, 0x5555
	k1, k2, xw := lcgMul, lcgAdd, uint64(x^w)
	// step is the guest's LCG word step after store: x*K1 + K2, plus the
	// word at addr+8.
	step := func(f *wasmbuild.FuncBuilder) {
		f.LocalGet(1).I64Const(int64(k1)).I64Mul().I64Const(int64(k2)).I64Add().LocalGet(0).I64Load(8).I64Add()
	}
	for _, tc := range []struct {
		name  string
		body  func(f *wasmbuild.FuncBuilder)
		fused byte // the one superinstruction that must appear, once; 0: none may
		want  uint64
	}{
		{"xor(local, load)", func(f *wasmbuild.FuncBuilder) { f.LocalGet(1).LocalGet(0).I64Load(8).I64Xor() }, wasm.OpXorLoad, x ^ w},
		{"xor(load, local)", func(f *wasmbuild.FuncBuilder) { f.LocalGet(0).I64Load(8).LocalGet(1).I64Xor() }, wasm.OpXorLoad, x ^ w},
		{"xor(const, load)", func(f *wasmbuild.FuncBuilder) { f.I64Const(x).LocalGet(0).I64Load(8).I64Xor() }, 0, x ^ w},
		{"branch target between load and xor", func(f *wasmbuild.FuncBuilder) {
			f.LocalGet(1).BlockT(i64).LocalGet(0).I64Load(8).LocalGet(0).BrIf(0).End().I64Xor()
		}, 0, x ^ w},
		{"load teed before xor", func(f *wasmbuild.FuncBuilder) {
			f.LocalGet(1).LocalGet(0).I64Load(8).LocalTee(2).I64Xor().LocalGet(2).I64Xor()
		}, 0, x},
		{"mul(local, K1) + K2", func(f *wasmbuild.FuncBuilder) {
			f.LocalGet(1).I64Const(int64(k1)).I64Mul().I64Const(int64(k2)).I64Add()
		}, wasm.OpMulAdd, x*k1 + k2},
		{"K2 + mul(local, K1)", func(f *wasmbuild.FuncBuilder) {
			f.I64Const(int64(k2)).LocalGet(1).I64Const(int64(k1)).I64Mul().I64Add()
		}, wasm.OpMulAdd, x*k1 + k2},
		{"mul(local, local) + K2", func(f *wasmbuild.FuncBuilder) { f.LocalGet(1).LocalGet(1).I64Mul().I64Const(int64(k2)).I64Add() }, 0, x*x + k2},
		{"mul teed before add", func(f *wasmbuild.FuncBuilder) {
			f.LocalGet(1).I64Const(int64(k1)).I64Mul().LocalTee(2).I64Const(int64(k2)).I64Add().LocalGet(2).I64Sub()
		}, 0, k2},
		{"(local ^ load) * K", func(f *wasmbuild.FuncBuilder) {
			f.LocalGet(1).LocalGet(0).I64Load(8).I64Xor().I64Const(int64(fnvPrime)).I64Mul()
		}, wasm.OpXorLoadMul, xw * fnvPrime},
		{"K * (load ^ local)", func(f *wasmbuild.FuncBuilder) {
			f.I64Const(int64(fnvPrime)).LocalGet(0).I64Load(8).LocalGet(1).I64Xor().I64Mul()
		}, wasm.OpXorLoadMul, xw * fnvPrime},
		{"(local ^ load) * local", func(f *wasmbuild.FuncBuilder) {
			f.LocalGet(1).LocalGet(0).I64Load(8).I64Xor().LocalGet(1).I64Mul()
		}, wasm.OpXorLoad, xw * x},
		{"xorLoad teed before mul", func(f *wasmbuild.FuncBuilder) {
			f.LocalGet(1).LocalGet(0).I64Load(8).I64Xor().LocalTee(2).I64Const(int64(fnvPrime)).I64Mul().LocalGet(2).I64Sub()
		}, wasm.OpXorLoad, xw*fnvPrime - xw},
		{"store x; x*K1 + K2", func(f *wasmbuild.FuncBuilder) {
			f.LocalGet(0).LocalGet(1).I64Store(8)
			step(f)
		}, wasm.OpStoreMulAdd, x*k1 + k2 + x},
		{"store x; loop label; x*K1 + K2", func(f *wasmbuild.FuncBuilder) {
			f.LocalGet(0).LocalGet(1).I64Store(8).Loop()
			step(f)
			f.LocalSet(2).I32Const(0).BrIf(0).End().LocalGet(2) // a back edge, never taken
		}, wasm.OpMulAdd, x*k1 + k2 + x},
		{"store x; block end; x*K1 + K2", func(f *wasmbuild.FuncBuilder) {
			f.Block().LocalGet(0).LocalGet(1).I64Store(8).End()
			step(f)
		}, wasm.OpMulAdd, x*k1 + k2 + x},
		{"store another local; x*K1 + K2", func(f *wasmbuild.FuncBuilder) {
			f.LocalGet(0).LocalGet(2).I64Store(8) // local 2 is zero
			step(f)
		}, wasm.OpMulAdd, x*k1 + k2},
		{"store a constant; x*K1 + K2", func(f *wasmbuild.FuncBuilder) {
			f.LocalGet(0).I64Const(7).I64Store(8)
			step(f)
		}, wasm.OpMulAdd, x*k1 + k2 + 7},
		{"i64.store32 x; x*K1 + K2", func(f *wasmbuild.FuncBuilder) {
			f.LocalGet(0).LocalGet(1).Raw(0x3E, 2, 8)
			step(f)
		}, wasm.OpMulAdd, x*k1 + k2 + (w&^math.MaxUint32 | x)},
	} {
		b := wasmbuild.New()
		b.Memory(1, 1, "memory")
		f := b.NewFunc("f", []wasm.ValType{i32, i64}, []wasm.ValType{i64})
		f.AddLocal(i64)
		tc.body(f)
		inst := instantiate(t, b, nil)
		if err := inst.Memory().WriteAt(binary.LittleEndian.AppendUint64(nil, w), addr+8); err != nil {
			t.Fatal(err)
		}
		if bad := inst.Module().MisplacedJumps("f"); len(bad) > 0 {
			t.Errorf("%s: misplaced jumps %v", tc.name, bad)
		}
		ops := inst.Module().LoweredOps("f")
		for _, op := range []byte{wasm.OpXorLoad, wasm.OpMulAdd, wasm.OpXorLoadMul, wasm.OpStoreMulAdd} {
			if n := bytes.Count(ops, []byte{op}); n != int(b2u(op == tc.fused)) {
				t.Errorf("%s: %d instructions of op %#x, want %d", tc.name, n, op, b2u(op == tc.fused))
			}
		}
		if got := call1(t, inst, "f", addr, x); got != tc.want {
			t.Errorf("%s: f = %#x, want %#x", tc.name, got, tc.want)
		}
	}

	// A run is n ≥ 2 consecutive word steps of one kind that differ only in
	// their offsets, 8 apart: one base slot, one constant, and a step that
	// writes the slot it reads (FNV: h = (h ^ word) * K into h; LCG: store x,
	// then x = x*K1 + K2 into x), with no branch landing on a step behind
	// the first. Each row runs g(addr, x) over n steps at offsets 0, 8, …,
	// with what the row changes from step 3 on, and checks the runs that form
	// and, against a Go model of the steps, the result and every byte the
	// steps can reach.
	type wordStep struct {
		base, dst uint32 // the local holding the address, 0 or 3 (a copy); the local written, 1 or 2
		off       uint32
		k         uint64 // FNV: K; LCG: K1
		store32   bool
	}
	at3 := func(change func(s *wordStep)) func(i int, s *wordStep) {
		return func(i int, s *wordStep) {
			if i == 3 {
				change(s)
			}
		}
	}
	gap := func(i int, s *wordStep) { // steps 3 on sit 8 bytes further up
		if i >= 3 {
			s.off += 8
		}
	}
	for _, tc := range []struct {
		name   string
		fnv    bool
		n      int
		change func(i int, s *wordStep)
		branch bool // a branch lands on step 3
		runs   []int
	}{
		{"8 FNV steps", true, 8, nil, false, []int{8}},
		{"8 LCG steps", false, 8, nil, false, []int{8}},
		{"2 FNV steps", true, 2, nil, false, []int{2}},
		{"1 FNV step", true, 1, nil, false, nil},
		{"1 LCG step", false, 1, nil, false, nil},
		{"FNV, another base slot", true, 8, at3(func(s *wordStep) { s.base = 3 }), false, []int{3, 4}},
		{"LCG, another base slot", false, 8, at3(func(s *wordStep) { s.base = 3 }), false, []int{3, 4}},
		{"FNV, an offset gap", true, 8, gap, false, []int{3, 5}},
		{"LCG, an offset gap", false, 8, gap, false, []int{3, 5}},
		{"FNV, another constant", true, 8, at3(func(s *wordStep) { s.k = lcgMul }), false, []int{3, 4}},
		{"LCG, another constant", false, 8, at3(func(s *wordStep) { s.k = fnvPrime }), false, []int{3, 4}},
		{"FNV, an accumulator that is not both d and b", true, 8, at3(func(s *wordStep) { s.dst = 2 }), false, []int{3, 4}},
		{"LCG, a value that is not both d and b", false, 8, at3(func(s *wordStep) { s.dst = 2 }), false, []int{3, 4}},
		{"FNV, a branch target inside", true, 8, nil, true, []int{3, 5}},
		{"LCG, a branch target inside", false, 8, nil, true, []int{3, 5}},
		{"LCG, an i64.store32 inside", false, 8, at3(func(s *wordStep) { s.store32 = true }), false, []int{3, 4}},
	} {
		const base, span = 64, 96
		b := wasmbuild.New()
		b.Memory(1, 1, "memory")
		g := b.NewFunc("g", []wasm.ValType{i32, i64}, []wasm.ValType{i64})
		g.AddLocal(i64)
		g.AddLocal(i32)
		g.LocalGet(0).LocalSet(3)
		steps := make([]wordStep, tc.n)
		for i := range steps {
			s := &steps[i]
			*s = wordStep{base: 0, dst: 1, off: 8 * uint32(i), k: fnvPrime}
			if !tc.fnv {
				s.k = lcgMul
			}
			if tc.change != nil {
				tc.change(i, s)
			}
			switch {
			case tc.branch && i == 0:
				g.Block().I32Const(0).BrIf(0)
			case tc.branch && i == 3:
				g.End()
			}
			if tc.fnv {
				g.LocalGet(1).LocalGet(s.base).I64Load(s.off).I64Xor().I64Const(int64(s.k)).I64Mul().LocalSet(s.dst)
				continue
			}
			g.LocalGet(s.base).LocalGet(1)
			if s.store32 {
				g.Raw(0x3E, 2, byte(s.off))
			} else {
				g.I64Store(s.off)
			}
			g.LocalGet(1).I64Const(int64(s.k)).I64Mul().I64Const(int64(lcgAdd)).I64Add().LocalSet(s.dst)
		}
		g.LocalGet(1).LocalGet(2).I64Add()
		inst := instantiate(t, b, nil)
		if got := inst.Module().LoweredRuns("g"); !slices.Equal(got, tc.runs) {
			t.Errorf("%s: runs of %v steps, want %v", tc.name, got, tc.runs)
		}
		if bad := inst.Module().MisplacedJumps("g"); len(bad) > 0 {
			t.Errorf("%s: misplaced jumps %v", tc.name, bad)
		}
		mem := make([]byte, span)
		for i := range mem {
			mem[i] = byte(i*37 + 11)
		}
		if err := inst.Memory().WriteAt(mem, base); err != nil {
			t.Fatal(err)
		}
		locals := []uint64{base, x, 0, base}
		for _, s := range steps {
			w := mem[s.off:]
			switch {
			case tc.fnv:
				locals[s.dst] = (locals[1] ^ binary.LittleEndian.Uint64(w)) * s.k
				continue
			case s.store32:
				binary.LittleEndian.PutUint32(w, uint32(locals[1]))
			default:
				binary.LittleEndian.PutUint64(w, locals[1])
			}
			locals[s.dst] = locals[1]*s.k + lcgAdd
		}
		if got, want := call1(t, inst, "g", base, x), locals[1]+locals[2]; got != want {
			t.Errorf("%s: g = %#x, want %#x", tc.name, got, want)
		}
		if got, err := inst.Memory().View(base, span); err != nil || !bytes.Equal(got, mem) {
			t.Errorf("%s: memory reads % x (%v), want % x", tc.name, got, err, mem)
		}
	}
}

// Every load and store, and each fused instruction with a memory access,
// traps exactly when its effective address plus its width passes the end of
// memory: at the last address that fits it succeeds, one byte later it traps
// (the address is in bounds, the access is not), and at the end, past it and
// past 2^32 (the 64-bit sum of a 32-bit address and its offset) it traps on
// the address. A trap names the effective address, leaves a load's
// destination — the local its result is set to, for storeMulAdd the local
// its mulAdd half sets — unwritten, and leaves memory unchanged.
func TestEveryMemoryAccessTrapsAtItsAddress(t *testing.T) {
	const (
		off  = 8
		size = wasm.PageSize
		x    = 0x1122_3344_5566_7788 // the local a load overwrites, the value a store writes
	)
	f32, f64 := wasm.F32, wasm.F64
	type access struct {
		name  string
		op    byte // a load or store opcode; for a fused row, the superinstruction it lowers to
		width int
		typ   wasm.ValType
		store bool
	}
	rows := []access{
		{"i32.load", 0x28, 4, i32, false}, {"i64.load", 0x29, 8, i64, false},
		{"f32.load", 0x2A, 4, f32, false}, {"f64.load", 0x2B, 8, f64, false},
		{"i32.load8_s", 0x2C, 1, i32, false}, {"i32.load8_u", 0x2D, 1, i32, false},
		{"i32.load16_s", 0x2E, 2, i32, false}, {"i32.load16_u", 0x2F, 2, i32, false},
		{"i64.load8_s", 0x30, 1, i64, false}, {"i64.load8_u", 0x31, 1, i64, false},
		{"i64.load16_s", 0x32, 2, i64, false}, {"i64.load16_u", 0x33, 2, i64, false},
		{"i64.load32_s", 0x34, 4, i64, false}, {"i64.load32_u", 0x35, 4, i64, false},
		{"i32.store", 0x36, 4, i32, true}, {"i64.store", 0x37, 8, i64, true},
		{"f32.store", 0x38, 4, f32, true}, {"f64.store", 0x39, 8, f64, true},
		{"i32.store8", 0x3A, 1, i32, true}, {"i32.store16", 0x3B, 2, i32, true},
		{"i64.store8", 0x3C, 1, i64, true}, {"i64.store16", 0x3D, 2, i64, true},
		{"i64.store32", 0x3E, 4, i64, true},
		{"xorLoad", wasm.OpXorLoad, 8, i64, false},
		{"xorLoadMul", wasm.OpXorLoadMul, 8, i64, false},
		{"storeMulAdd", wasm.OpStoreMulAdd, 8, i64, true},
	}
	// The last 32 bytes of memory hold 0x80, 0x81, …: a sign bit in every
	// byte, so a sign extension that is lost shows.
	tail := make([]byte, 32)
	for i := range tail {
		tail[i] = 0x80 + byte(i)
	}
	for _, r := range rows {
		b := wasmbuild.New()
		b.Memory(1, 1, "memory")
		align := byte(bits.TrailingZeros(uint(r.width)))
		var f *wasmbuild.FuncBuilder
		fused := r.op == wasm.OpXorLoad || r.op == wasm.OpXorLoadMul || r.op == wasm.OpStoreMulAdd
		switch {
		case r.op == wasm.OpXorLoad: // f(addr, x): x = x ^ load(addr+off); return x
			f = b.NewFunc("f", []wasm.ValType{i32, r.typ}, []wasm.ValType{r.typ})
			f.LocalGet(1).LocalGet(0).I64Load(off).I64Xor().LocalSet(1).LocalGet(1)
		case r.op == wasm.OpXorLoadMul: // f(addr, x): x = (x ^ load(addr+off)) * fnvPrime; return x
			f = b.NewFunc("f", []wasm.ValType{i32, r.typ}, []wasm.ValType{r.typ})
			f.LocalGet(1).LocalGet(0).I64Load(off).I64Xor().I64Const(int64(fnvPrime)).I64Mul().LocalSet(1).LocalGet(1)
		case r.op == wasm.OpStoreMulAdd: // f(addr, x): store x at addr+off; x = x*lcgMul + lcgAdd; return x
			f = b.NewFunc("f", []wasm.ValType{i32, r.typ}, []wasm.ValType{r.typ})
			f.LocalGet(0).LocalGet(1).I64Store(off).
				LocalGet(1).I64Const(int64(lcgMul)).I64Mul().I64Const(int64(lcgAdd)).I64Add().LocalSet(1).LocalGet(1)
		case r.store: // f(addr, x): store x at addr+off
			f = b.NewFunc("f", []wasm.ValType{i32, r.typ}, nil)
			f.LocalGet(0).LocalGet(1).Raw(r.op, align, off)
		default: // f(addr, x): x = load(addr+off); return x
			f = b.NewFunc("f", []wasm.ValType{i32, r.typ}, []wasm.ValType{r.typ})
			f.LocalGet(0).Raw(r.op, align, off).LocalSet(1).LocalGet(1)
		}
		inst := instantiate(t, b, nil)
		if fused {
			if n := bytes.Count(inst.Module().LoweredOps("f"), []byte{r.op}); n != 1 {
				t.Fatalf("%s: %d instructions of op %#x, want 1", r.name, n, r.op)
			}
		}
		arg := uint64(x)
		if r.typ == i32 || r.typ == f32 {
			arg &= math.MaxUint32
		}
		w := uint64(r.width)
		for _, ea := range []uint64{size - w, size - w + 1, size, size + 5, math.MaxUint32 + off} {
			mem := inst.Memory()
			if err := mem.WriteAt(tail, size-uint32(len(tail))); err != nil {
				t.Fatal(err)
			}
			res, err := inst.Call("f", ea-off, arg)
			after, verr := mem.View(size-uint32(len(tail)), uint32(len(tail)))
			if verr != nil {
				t.Fatal(verr)
			}
			if ea+w <= size {
				if err != nil {
					t.Errorf("%s at %d: %v, want it to succeed", r.name, ea, err)
					continue
				}
				at := int(ea) - (size - len(tail))
				if r.store {
					want := binary.LittleEndian.AppendUint64(nil, arg)[:w]
					if got := after[at:][:w]; !bytes.Equal(got, want) {
						t.Errorf("%s at %d stored % x, want % x", r.name, ea, got, want)
					}
				}
				if want := loaded(r.op, r.typ, tail[at:][:w], arg); len(res) > 0 && res[0] != want {
					t.Errorf("%s at %d = %#x, want %#x", r.name, ea, res[0], want)
				}
				continue
			}
			if !errors.Is(err, wasm.TrapOutOfBounds) {
				t.Errorf("%s at %d: err = %v, want TrapOutOfBounds", r.name, ea, err)
				continue
			}
			if want := fmt.Sprintf("memory access at %d of %d", ea, size); !strings.Contains(err.Error(), want) {
				t.Errorf("%s at %d: err = %v, want it to name %q", r.name, ea, err, want)
			}
			if !bytes.Equal(after, tail) {
				t.Errorf("%s at %d: memory's tail reads % x after the trap, want % x", r.name, ea, after, tail)
			}
			if got := inst.LastFrame()[2]; (!r.store || fused) && got != arg { // slot 2: local 1
				t.Errorf("%s at %d: the destination holds %#x after the trap, want %#x unwritten", r.name, ea, got, arg)
			}
		}
	}

	// A run of eight word steps at offsets off, off+8, … traps where its
	// first word that does not fit would: at word k, one byte short of
	// fitting or wholly past the end, it names word k's address, and the k
	// words before it are done — a store run has written them, either run has
	// advanced its local k times — with nothing at or after word k written.
	// With k = 8 every word fits and the run completes.
	for _, run := range []struct {
		name string
		op   byte
		step func(f *wasmbuild.FuncBuilder, off uint32)
		word func(v uint64, w []byte) uint64 // one step on the model
	}{
		{"xorLoadMul run", wasm.OpXorLoadMulRun, func(f *wasmbuild.FuncBuilder, off uint32) {
			f.LocalGet(1).LocalGet(0).I64Load(off).I64Xor().I64Const(int64(fnvPrime)).I64Mul().LocalSet(1)
		}, func(v uint64, w []byte) uint64 { return (v ^ binary.LittleEndian.Uint64(w)) * fnvPrime }},
		{"storeMulAdd run", wasm.OpStoreMulAddRun, func(f *wasmbuild.FuncBuilder, off uint32) {
			f.LocalGet(0).LocalGet(1).I64Store(off).LocalGet(1).I64Const(int64(lcgMul)).I64Mul().I64Const(int64(lcgAdd)).I64Add().LocalSet(1)
		}, func(v uint64, w []byte) uint64 { binary.LittleEndian.PutUint64(w, v); return v*lcgMul + lcgAdd }},
	} {
		b := wasmbuild.New()
		b.Memory(1, 1, "memory")
		f := b.NewFunc("f", []wasm.ValType{i32, i64}, []wasm.ValType{i64})
		for i := uint32(0); i < 8; i++ {
			run.step(f, off+8*i)
		}
		f.LocalGet(1)
		inst := instantiate(t, b, nil)
		if got := inst.Module().LoweredRuns("f"); !slices.Equal(got, []int{8}) || bytes.IndexByte(inst.Module().LoweredOps("f"), run.op) < 0 {
			t.Fatalf("%s: runs of %v steps, want one of 8 (op %#x)", run.name, got, run.op)
		}
		tail := make([]byte, 80)
		for i := range tail {
			tail[i] = 0x80 + byte(i)
		}
		for k := uint64(0); k <= 8; k++ {
			for _, ea := range []uint64{size - 7, size} { // where word k starts
				mem := inst.Memory()
				if err := mem.WriteAt(tail, size-uint32(len(tail))); err != nil {
					t.Fatal(err)
				}
				res, err := inst.Call("f", ea-8*k-off, x)
				after, verr := mem.View(size-uint32(len(tail)), uint32(len(tail)))
				if verr != nil {
					t.Fatal(verr)
				}
				want, v := bytes.Clone(tail), uint64(x)
				for i := uint64(0); i < k; i++ {
					v = run.word(v, want[ea-8*(k-i)-(size-uint64(len(tail))):])
				}
				switch {
				case k == 8:
					if err != nil || res[0] != v {
						t.Errorf("%s ending at %d: %v, %v, want %#x", run.name, ea, res, err, v)
					}
				case !errors.Is(err, wasm.TrapOutOfBounds):
					t.Errorf("%s, word %d at %d: err = %v, want TrapOutOfBounds", run.name, k, ea, err)
					continue
				case !strings.Contains(err.Error(), fmt.Sprintf("memory access at %d of %d", ea, size)):
					t.Errorf("%s, word %d at %d: err = %v, want it to name word %d's address", run.name, k, ea, err, k)
				}
				if !bytes.Equal(after, want) {
					t.Errorf("%s, word %d at %d: memory's tail reads % x, want % x", run.name, k, ea, after, want)
				}
				if got := inst.LastFrame()[2]; k < 8 && got != v { // slot 2: local 1
					t.Errorf("%s, word %d at %d: the local holds %#x after the trap, want %#x", run.name, k, ea, got, v)
				}
			}
		}
	}
}

// loaded is what f of TestEveryMemoryAccessTrapsAtItsAddress returns for
// op, when its access reads or overwrites the little-endian bytes b, into a
// local of type typ; x is the local's value before.
func loaded(op byte, typ wasm.ValType, b []byte, x uint64) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	switch op {
	case wasm.OpXorLoad:
		return x ^ v
	case wasm.OpXorLoadMul:
		return (x ^ v) * fnvPrime
	case wasm.OpStoreMulAdd:
		return x*lcgMul + lcgAdd
	case 0x2C, 0x2E, 0x30, 0x32, 0x34: // the signed narrow loads
		shift := 64 - 8*len(b)
		v = uint64(int64(v<<shift) >> shift)
	}
	if typ == wasm.I32 || typ == wasm.F32 {
		v = uint64(uint32(v))
	}
	return v
}

// The guest's produce and consume kernels are what a set-up spends its time
// in, and their main loop moves 64 bytes per iteration in the shape a
// compiler emits: the guard end−s < 64 (subtract, compare-and-branch), eight
// word steps (produce: the store and the LCG step seed*K1+K2 as one
// storeMulAdd; consume: the load, the FNV xor and the multiply as one
// xorLoadMul), s += 64 and the jump back. The eight steps are one run, so
// with every word in bounds an iteration dispatches 5 instructions. With
// each step its own dispatch it is 12, with only the pairwise fusions
// (xorLoad, mulAdd) 20, unfused 28, and a loop of one word per iteration
// takes 56 (produce) and 48 (consume), so a guest edit that undoes the
// unrolling, or a lowerer edit that loses a fusion or the run, moves these
// counts.
func TestGuestKernelShape(t *testing.T) {
	m, err := wasm.Decode(guest.Module())
	if err != nil {
		t.Fatal(err)
	}
	// The total is the main loop's 5, the 8-byte loop's 5, the byte loop's
	// 7, and the set-up, calls and return around them (13 and 5).
	for _, k := range []struct {
		export string
		run    byte
		total  int
	}{{guest.ExportProduce, wasm.OpStoreMulAddRun, 30}, {guest.ExportConsume, wasm.OpXorLoadMulRun, 22}} {
		if got := len(m.LoweredOps(k.export)); got != k.total {
			t.Errorf("%s dispatches %d instructions, want %d", k.export, got, k.total)
		}
		if got := m.LoweredRuns(k.export); !slices.Equal(got, []int{8}) {
			t.Errorf("%s has runs of %v steps, want one of 8", k.export, got)
		}
		loops := m.LoweredLoops(k.export)
		if len(loops) != 3 {
			t.Fatalf("%s has %d loops, want 3", k.export, len(loops))
		}
		if main := loops[0]; len(main) != 5 || bytes.Count(main, []byte{k.run}) != 1 {
			t.Errorf("%s main loop dispatches %d instructions, %d of them the run (op %#x), want 5 and 1",
				k.export, len(main), bytes.Count(main, []byte{k.run}), k.run)
		}
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
