package abi_test

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/abi"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasmbuild"
)

// minimalABIModule builds the smallest module satisfying the Table-1 ABI: a
// bump allocator over one memory page that never reuses what it frees, plus
// output registration.
func minimalABIModule(t *testing.T) *wasm.Instance {
	t.Helper()
	b := wasmbuild.New()
	i32, i64 := wasm.I32, wasm.I64
	b.Memory(1, 16, abi.ExportMemory)
	heap := b.Global("", i32, true, 64)
	outPtr := b.Global("", i32, true, 0)
	outLen := b.Global("", i32, true, 0)

	alloc := b.NewFunc(abi.ExportAllocate, []wasm.ValType{i32}, []wasm.ValType{i32})
	ptr := alloc.AddLocal(i32)
	alloc.GlobalGet(heap).LocalSet(ptr).
		GlobalGet(heap).LocalGet(0).I32Add().GlobalSet(heap).
		LocalGet(ptr)

	free := b.NewFunc(abi.ExportDeallocate, []wasm.ValType{i32}, nil)
	free.Nop()

	loc := b.NewFunc(abi.ExportLocate, nil, []wasm.ValType{i64})
	loc.GlobalGet(outPtr).I64ExtendI32U().I64Const(32).I64Shl().
		GlobalGet(outLen).I64ExtendI32U().I64Or()

	set := b.NewFunc("set_output", []wasm.ValType{i32, i32}, nil)
	set.LocalGet(0).GlobalSet(outPtr).LocalGet(1).GlobalSet(outLen)

	m, err := wasm.Decode(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wasm.Instantiate(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestPackUnpackProperty(t *testing.T) {
	f := func(ptr, n uint32) bool {
		p, m := abi.Unpack(abi.Pack(ptr, n))
		return p == ptr && m == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewViewRequiresABI(t *testing.T) {
	// Module with memory but no ABI exports.
	b := wasmbuild.New()
	b.Memory(1, 1, abi.ExportMemory)
	f := b.NewFunc("f", nil, nil)
	f.Nop()
	m, err := wasm.Decode(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wasm.Instantiate(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := abi.NewView(inst, nil); !errors.Is(err, abi.ErrMissingExport) {
		t.Fatalf("err = %v", err)
	}

	// Module without memory at all.
	b2 := wasmbuild.New()
	f2 := b2.NewFunc("f", nil, nil)
	f2.Nop()
	m2, err := wasm.Decode(b2.Build())
	if err != nil {
		t.Fatal(err)
	}
	inst2, err := wasm.Instantiate(m2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := abi.NewView(inst2, nil); !errors.Is(err, abi.ErrMissingExport) {
		t.Fatalf("no-memory err = %v", err)
	}
}

func TestAllocateRegistersWritable(t *testing.T) {
	inst := minimalABIModule(t)
	acct := &metrics.Account{}
	view, err := abi.NewView(inst, acct)
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := view.Allocate(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := view.Write([]byte("hello"), ptr); err != nil {
		t.Fatal(err)
	}
	// Boundary copy charged as user space.
	if acct.Snapshot().UserCopyBytes != 5 {
		t.Fatalf("user copies = %d", acct.Snapshot().UserCopyBytes)
	}
	// Writing past the allocation is rejected even though memory exists.
	if err := view.Write(make([]byte, 101), ptr); !errors.Is(err, abi.ErrNotRegistered) {
		t.Fatalf("overlong write = %v", err)
	}
	// Writing inside the region at an offset is allowed.
	if err := view.Write([]byte("x"), ptr+99); err != nil {
		t.Fatalf("tail write = %v", err)
	}
}

func TestLocateRegistersReadable(t *testing.T) {
	inst := minimalABIModule(t)
	view, err := abi.NewView(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Call("set_output", 200, 32); err != nil {
		t.Fatal(err)
	}
	ptr, n, err := view.Locate()
	if err != nil || ptr != 200 || n != 32 {
		t.Fatalf("locate = (%d,%d), %v", ptr, n, err)
	}
	if _, err := view.ReadView(200, 32); err != nil {
		t.Fatal(err)
	}
	if _, err := view.ReadView(199, 32); !errors.Is(err, abi.ErrNotRegistered) {
		t.Fatalf("pre-region read = %v", err)
	}
	if _, err := view.ReadView(200, 33); !errors.Is(err, abi.ErrNotRegistered) {
		t.Fatalf("overlong read = %v", err)
	}
}

// TestDeallocateRevokesRegistrations frees the older of two blocks: only
// the registrations inside it go, the newer block's stay.
func TestDeallocateRevokesRegistrations(t *testing.T) {
	inst := minimalABIModule(t)
	view, err := abi.NewView(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := view.Allocate(64)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := view.Allocate(64)
	if err != nil {
		t.Fatal(err)
	}
	view.RegisterOutput(p1+8, 16)
	view.RegisterOutput(p2, 64)
	if err := view.Deallocate(p1); err != nil {
		t.Fatal(err)
	}
	if err := view.Write([]byte("x"), p1); !errors.Is(err, abi.ErrNotRegistered) {
		t.Fatalf("write to freed region = %v", err)
	}
	if _, err := view.ReadView(p1+8, 16); !errors.Is(err, abi.ErrNotRegistered) {
		t.Fatalf("read of an output inside the freed region = %v", err)
	}
	if err := view.Write([]byte("x"), p2); err != nil {
		t.Fatalf("write to live region = %v", err)
	}
	if _, err := view.ReadView(p2, 64); err != nil {
		t.Fatalf("read of live output = %v", err)
	}
}

func TestRegisterOutputDeduplicates(t *testing.T) {
	inst := minimalABIModule(t)
	view, err := abi.NewView(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		view.RegisterOutput(100, 50)
	}
	if _, err := view.ReadView(100, 50); err != nil {
		t.Fatal(err)
	}
	// Registration of a region out of memory bounds still fails at the
	// memory layer even though it is "registered".
	view.RegisterOutput(1<<30, 10)
	if _, err := view.ReadView(1<<30, 10); !errors.Is(err, wasm.TrapOutOfBounds) {
		t.Fatalf("oob registered read = %v", err)
	}
}

func TestWritableViewZeroCopy(t *testing.T) {
	inst := minimalABIModule(t)
	view, err := abi.NewView(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := view.Allocate(16)
	if err != nil {
		t.Fatal(err)
	}
	wv, err := view.WritableView(ptr, 16)
	if err != nil {
		t.Fatal(err)
	}
	copy(wv, "direct deposit!!")
	got, err := inst.Memory().View(ptr, 16)
	if err != nil || string(got) != "direct deposit!!" {
		t.Fatalf("memory = %q, %v", got, err)
	}
	if _, err := view.WritableView(ptr+1, 16); !errors.Is(err, abi.ErrNotRegistered) {
		t.Fatalf("misaligned writable view = %v", err)
	}
}

func TestSendToHostImport(t *testing.T) {
	var got [][2]uint32
	hf := abi.SendToHostImport(func(ptr, n uint32) { got = append(got, [2]uint32{ptr, n}) })
	if len(hf.Type.Params) != 2 {
		t.Fatalf("signature = %v", hf.Type)
	}
	if _, err := hf.Fn(nil, []uint64{7, 9}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != [2]uint32{7, 9} {
		t.Fatalf("sink calls = %v", got)
	}
	// Nil sink is safe.
	nilHF := abi.SendToHostImport(nil)
	if _, err := nilHF.Fn(nil, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
}

// Property: the shim can never read bytes the guest did not announce —
// random probe regions either fall inside a registered region or fail.
func TestNoUnregisteredReadsProperty(t *testing.T) {
	inst := minimalABIModule(t)
	view, err := abi.NewView(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	const regPtr, regLen = 300, 100
	if _, err := inst.Call("set_output", regPtr, regLen); err != nil {
		t.Fatal(err)
	}
	if _, _, err := view.Locate(); err != nil {
		t.Fatal(err)
	}
	f := func(ptr uint16, n uint8) bool {
		p, m := uint32(ptr), uint32(n)
		_, err := view.ReadView(p, m)
		inside := p >= regPtr && p+m <= regPtr+regLen
		if inside {
			return err == nil
		}
		return errors.Is(err, abi.ErrNotRegistered)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
