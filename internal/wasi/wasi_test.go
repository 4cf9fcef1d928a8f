package wasi_test

import (
	"bytes"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasi"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasmbuild"
)

// testGuest builds a tiny module importing the WASI surface and exposing
// thin wrappers, so each host function is exercised through a real sandbox
// boundary.
func testGuest(t *testing.T, host *wasi.Host) *wasm.Instance {
	t.Helper()
	b := wasmbuild.New()
	i32 := wasm.I32
	sig3 := []wasm.ValType{i32, i32, i32}
	sockSend := b.ImportFunc(wasi.ModuleName, "sock_send", sig3, []wasm.ValType{i32})
	sockRecv := b.ImportFunc(wasi.ModuleName, "sock_recv", sig3, []wasm.ValType{i32})
	fdRead := b.ImportFunc(wasi.ModuleName, "fd_read", sig3, []wasm.ValType{i32})
	fdWrite := b.ImportFunc(wasi.ModuleName, "fd_write", sig3, []wasm.ValType{i32})
	clock := b.ImportFunc(wasi.ModuleName, "clock_time_get", nil, []wasm.ValType{wasm.I64})
	random := b.ImportFunc(wasi.ModuleName, "random_get", []wasm.ValType{i32, i32}, []wasm.ValType{i32})
	b.Memory(1, 4, "memory")

	wrap3 := func(name string, ref wasmbuild.FuncRef) {
		f := b.NewFunc(name, sig3, []wasm.ValType{i32})
		f.LocalGet(0).LocalGet(1).LocalGet(2).Call(ref)
	}
	wrap3("send", sockSend)
	wrap3("recv", sockRecv)
	wrap3("read", fdRead)
	wrap3("write", fdWrite)
	fc := b.NewFunc("clock", nil, []wasm.ValType{wasm.I64})
	fc.Call(clock)
	fr := b.NewFunc("random", []wasm.ValType{i32, i32}, []wasm.ValType{i32})
	fr.LocalGet(0).LocalGet(1).Call(random)

	m, err := wasm.Decode(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	imports := wasm.Imports{}
	host.AddImports(imports)
	inst, err := wasm.Instantiate(m, imports, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestSockSendRecvRoundTrip(t *testing.T) {
	k := kernel.New("n")
	acct := &metrics.Account{}
	pa := k.NewProc("a", acct)
	pb := k.NewProc("b", acct)
	defer pa.CloseAll()
	defer pb.CloseAll()
	fa, fb, err := kernel.SocketPair(pa, pb)
	if err != nil {
		t.Fatal(err)
	}

	hostA := wasi.NewHost(pa, acct)
	hostB := wasi.NewHost(pb, acct)
	instA := testGuest(t, hostA)
	instB := testGuest(t, hostB)

	msg := []byte("wasi boundary crossing")
	if err := instA.Memory().WriteAt(msg, 64); err != nil {
		t.Fatal(err)
	}
	res, err := instA.Call("send", uint64(fa), 64, uint64(len(msg)))
	if err != nil || uint32(res[0]) != wasi.ErrnoSuccess {
		t.Fatalf("send = %v, %v", res, err)
	}
	res, err = instB.Call("recv", uint64(fb), 128, uint64(len(msg)))
	if err != nil || int32(res[0]) != int32(len(msg)) {
		t.Fatalf("recv = %v, %v", res, err)
	}
	got, err := instB.Memory().View(128, uint32(len(msg)))
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("payload = %q, %v", got, err)
	}
	// Staging copies charged on both sides (send + recv).
	if u := acct.Snapshot(); u.UserCopyBytes < int64(2*len(msg)) {
		t.Fatalf("staging copies = %d", u.UserCopyBytes)
	}
}

func TestSockSendBadPointer(t *testing.T) {
	k := kernel.New("n")
	p := k.NewProc("a", nil)
	defer p.CloseAll()
	host := wasi.NewHost(p, nil)
	inst := testGuest(t, host)
	res, err := inst.Call("send", 3, 0xFFFFFF, 100)
	if err != nil || uint32(res[0]) != wasi.ErrnoInval {
		t.Fatalf("send oob = %v, %v", res, err)
	}
}

func TestSockSendBadFD(t *testing.T) {
	k := kernel.New("n")
	p := k.NewProc("a", nil)
	defer p.CloseAll()
	host := wasi.NewHost(p, nil)
	inst := testGuest(t, host)
	res, err := inst.Call("send", 99, 0, 4)
	if err != nil || uint32(res[0]) != wasi.ErrnoIO {
		t.Fatalf("send bad fd = %v, %v", res, err)
	}
}

func TestSockRecvErrnoEncoding(t *testing.T) {
	k := kernel.New("n")
	p := k.NewProc("a", nil)
	defer p.CloseAll()
	host := wasi.NewHost(p, nil)
	inst := testGuest(t, host)
	res, err := inst.Call("recv", 99, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := int32(res[0]); got != -int32(wasi.ErrnoIO) {
		t.Fatalf("recv bad fd = %d, want %d", got, -int32(wasi.ErrnoIO))
	}
}

func TestFdReadStreamsFile(t *testing.T) {
	k := kernel.New("n")
	acct := &metrics.Account{}
	p := k.NewProc("a", acct)
	defer p.CloseAll()
	host := wasi.NewHost(p, acct)
	host.Files[5] = []byte("0123456789")
	inst := testGuest(t, host)

	res, err := inst.Call("read", 5, 0, 4)
	if err != nil || res[0] != 4 {
		t.Fatalf("read 1 = %v, %v", res, err)
	}
	res, err = inst.Call("read", 5, 4, 100)
	if err != nil || res[0] != 6 {
		t.Fatalf("read 2 = %v, %v", res, err)
	}
	got, _ := inst.Memory().View(0, 10)
	if string(got) != "0123456789" {
		t.Fatalf("file content = %q", got)
	}
	// EOF: zero bytes.
	res, err = inst.Call("read", 5, 0, 10)
	if err != nil || res[0] != 0 {
		t.Fatalf("read at EOF = %v, %v", res, err)
	}
	// Unknown fd.
	res, err = inst.Call("read", 42, 0, 10)
	if err != nil || int32(res[0]) != -int32(wasi.ErrnoBadF) {
		t.Fatalf("read bad fd = %v, %v", res, err)
	}
}

func TestFdWriteChargesBoundaryCosts(t *testing.T) {
	k := kernel.New("n")
	acct := &metrics.Account{}
	p := k.NewProc("a", acct)
	defer p.CloseAll()
	host := wasi.NewHost(p, acct)
	inst := testGuest(t, host)
	before := acct.Snapshot()
	res, err := inst.Call("write", 1, 0, 1000)
	if err != nil || res[0] != 1000 {
		t.Fatalf("write = %v, %v", res, err)
	}
	delta := acct.Snapshot().Sub(before)
	if delta.UserCopyBytes != 1000 || delta.KernelCopyBytes != 1000 {
		t.Fatalf("copies = %d user / %d kernel", delta.UserCopyBytes, delta.KernelCopyBytes)
	}
	if delta.Syscalls != 1 {
		t.Fatalf("syscalls = %d", delta.Syscalls)
	}
}

func TestClockInjectable(t *testing.T) {
	k := kernel.New("n")
	p := k.NewProc("a", nil)
	defer p.CloseAll()
	host := wasi.NewHost(p, nil)
	host.SetClock(func() uint64 { return 123456789 })
	inst := testGuest(t, host)
	res, err := inst.Call("clock")
	if err != nil || res[0] != 123456789 {
		t.Fatalf("clock = %v, %v", res, err)
	}
}

func TestRandomGetFillsMemory(t *testing.T) {
	k := kernel.New("n")
	p := k.NewProc("a", nil)
	defer p.CloseAll()
	host := wasi.NewHost(p, nil)
	inst := testGuest(t, host)
	res, err := inst.Call("random", 0, 64)
	if err != nil || uint32(res[0]) != wasi.ErrnoSuccess {
		t.Fatalf("random = %v, %v", res, err)
	}
	view, _ := inst.Memory().View(0, 64)
	zero := make([]byte, 64)
	if bytes.Equal(view, zero) {
		t.Fatal("random_get left memory zeroed")
	}
	// OOB pointer fails cleanly.
	res, err = inst.Call("random", 0xFFFFFF, 64)
	if err != nil || uint32(res[0]) != wasi.ErrnoInval {
		t.Fatalf("random oob = %v, %v", res, err)
	}
}

// TestSockSendChargesStagingCopy: sock_send always stages, so n bytes cost
// one user copy into the staging buffer, one kernel copy into the socket and
// one syscall.
func TestSockSendChargesStagingCopy(t *testing.T) {
	k := kernel.New("n")
	acct := &metrics.Account{}
	pa := k.NewProc("a", acct)
	pb := k.NewProc("b", nil)
	defer pa.CloseAll()
	defer pb.CloseAll()
	fa, _, err := kernel.SocketPair(pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	inst := testGuest(t, wasi.NewHost(pa, acct))
	const n = 512
	before := acct.Snapshot()
	res, err := inst.Call("send", uint64(fa), 0, n)
	if err != nil || uint32(res[0]) != wasi.ErrnoSuccess {
		t.Fatalf("send = %v, %v", res, err)
	}
	delta := acct.Snapshot().Sub(before)
	if delta.UserCopyBytes != n || delta.KernelCopyBytes != n || delta.Syscalls != 1 {
		t.Fatalf("sock_send charged %d user / %d kernel bytes, %d syscalls; want %d / %d / 1",
			delta.UserCopyBytes, delta.KernelCopyBytes, delta.Syscalls, n, n)
	}
}

func TestHostString(t *testing.T) {
	k := kernel.New("n")
	p := k.NewProc("sandbox-7", nil)
	defer p.CloseAll()
	host := wasi.NewHost(p, nil)
	if got := host.String(); got != "wasi host on sandbox-7" {
		t.Fatalf("String() = %q", got)
	}
}
