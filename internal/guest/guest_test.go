package guest_test

import (
	"bytes"
	"errors"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/abi"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/serial"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasi"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
)

// harness instantiates the canonical guest with a WASI host bound to a fresh
// simulated process.
type harness struct {
	inst *wasm.Instance
	view *abi.View
	wasi *wasi.Host
	proc *kernel.Proc
	sent [][2]uint32 // send_to_host announcements
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	k := kernel.New("guest-test")
	acct := &metrics.Account{}
	proc := k.NewProc("fn", acct)
	t.Cleanup(proc.CloseAll)

	h := &harness{proc: proc}
	h.wasi = wasi.NewHost(proc, acct)

	imports := wasm.Imports{}
	h.wasi.AddImports(imports)
	imports.Add(abi.ImportModule, abi.ImportSendToHost, abi.SendToHostImport(func(ptr, n uint32) {
		h.sent = append(h.sent, [2]uint32{ptr, n})
		if h.view != nil {
			h.view.RegisterOutput(ptr, n)
		}
	}))

	m, err := wasm.Decode(guest.Module())
	if err != nil {
		t.Fatalf("decode guest: %v", err)
	}
	inst, err := wasm.Instantiate(m, imports, nil)
	if err != nil {
		t.Fatalf("instantiate guest: %v", err)
	}
	h.inst = inst
	view, err := abi.NewView(inst, acct)
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	h.view = view
	return h
}

func TestModuleDecodes(t *testing.T) {
	bin := guest.Module()
	if len(bin) < 100 {
		t.Fatalf("module suspiciously small: %d bytes", len(bin))
	}
	if _, err := wasm.Decode(bin); err != nil {
		t.Fatalf("decode: %v", err)
	}
	// The binary must be stable across calls (cached).
	if !bytes.Equal(bin, guest.Module()) {
		t.Fatal("Module() not deterministic")
	}
}

func TestHello(t *testing.T) {
	h := newHarness(t)
	res, err := h.inst.Call(guest.ExportHello)
	if err != nil || len(res) != 1 || res[0] != 42 {
		t.Fatalf("hello = %v, %v", res, err)
	}
}

// TestAllocatorBumpAndAlignment pins the block layout — payloads 8-aligned,
// each behind an 8-byte header — and exact release: freeing the oldest block
// leaves the heap where it is and the later blocks' bytes intact, and the
// heap rewinds only over free blocks at the top.
func TestAllocatorBumpAndAlignment(t *testing.T) {
	h := newHarness(t)
	alloc := func(n uint32) uint32 {
		t.Helper()
		p, err := h.view.Allocate(n)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	free := func(p uint32) {
		t.Helper()
		if err := h.view.Deallocate(p); err != nil {
			t.Fatal(err)
		}
	}
	p1, p2, p3 := alloc(13), alloc(8), alloc(8)
	if p1 != 1024 || p2-p1 != 24 || p3-p2 != 16 { // 13 rounds to 16; each payload sits behind an 8-byte header
		t.Fatalf("blocks at %d, %d, %d; want 1024, 1048, 1064", p1, p2, p3)
	}
	if err := h.view.Write([]byte("survives"), p2); err != nil {
		t.Fatal(err)
	}
	// Out of order: the oldest block goes first, and nothing else with it.
	free(p1)
	if p := alloc(8); p != p3+16 {
		t.Fatalf("after freeing the oldest block the next lands at %d, want %d", p, p3+16)
	} else {
		free(p)
	}
	if got, _ := h.inst.Memory().View(p2, 8); string(got) != "survives" {
		t.Fatalf("freeing the oldest block clobbered its successor: %q", got)
	}
	// The top rewinds over itself only while p2 is live, then over p2 and
	// the already-free p1 to the heap base.
	free(p3)
	if p := alloc(8); p != p3 {
		t.Fatalf("heap not rewound over the top block: %d, want %d", p, p3)
	} else {
		free(p)
	}
	free(p2)
	if p := alloc(8); p != p1 {
		t.Fatalf("heap not rewound to its base: %d, want %d", p, p1)
	}
}

func TestAllocatorGrowsMemory(t *testing.T) {
	h := newHarness(t)
	initial := h.inst.Memory().Size()
	// Allocate beyond the initial 2 pages.
	if _, err := h.view.Allocate(uint32(initial + 100_000)); err != nil {
		t.Fatal(err)
	}
	if got := h.inst.Memory().Size(); got <= initial {
		t.Fatalf("memory did not grow: %d", got)
	}
}

func TestReadMemoryWasmAliasesConsume(t *testing.T) {
	h := newHarness(t)
	ptr, m, err := h.view.CallPacked(guest.ExportProduce, 1000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.inst.Call(guest.ExportConsume, uint64(ptr), uint64(m))
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.inst.Call(abi.ExportReadWasm, uint64(ptr), uint64(m))
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Fatal("read_memory_wasm disagrees with consume")
	}
}

func TestLocateMemoryRegion(t *testing.T) {
	h := newHarness(t)
	ptr, n, err := h.view.CallPacked(guest.ExportProduce, 512)
	if err != nil {
		t.Fatal(err)
	}
	lptr, ln, err := h.view.Locate()
	if err != nil {
		t.Fatal(err)
	}
	if lptr != ptr || ln != n {
		t.Fatalf("locate = (%d,%d), want (%d,%d)", lptr, ln, ptr, n)
	}
}

func TestSendOutputAnnouncesRegion(t *testing.T) {
	h := newHarness(t)
	ptr, n, err := h.view.CallPacked(guest.ExportProduce, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.inst.Call(guest.ExportSendOutput); err != nil {
		t.Fatal(err)
	}
	if len(h.sent) != 1 || h.sent[0] != [2]uint32{ptr, n} {
		t.Fatalf("send_to_host announcements = %v", h.sent)
	}
}

// TestGuestSerializeInteroperatesWithHostCodec is the keystone test: the
// guest's in-sandbox serializer and the host-side internal/serial codec
// implement the same wire format.
func TestGuestSerializeInteroperatesWithHostCodec(t *testing.T) {
	h := newHarness(t)
	for _, n := range []int{0, 1, 100, 4096, 65_536} {
		pptr, pn, err := h.view.CallPacked(guest.ExportProduce, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		sptr, sn, err := h.view.CallPacked(guest.ExportSerialize, uint64(pptr), uint64(pn))
		if err != nil {
			t.Fatalf("serialize(%d): %v", n, err)
		}
		enc, err := h.view.ReadView(sptr, sn)
		if err != nil {
			t.Fatal(err)
		}
		records, err := serial.Decode(enc)
		if err != nil {
			t.Fatalf("host decode of guest encoding (%d bytes): %v", n, err)
		}
		if len(records) != 1 || string(records[0].Key) != "payload" {
			t.Fatalf("records = %d, key = %q", len(records), records[0].Key)
		}
		if !bytes.Equal(records[0].Value, guest.ReferenceProduce(n)) {
			t.Fatalf("decoded value diverges for n=%d", n)
		}
	}
}

func TestGuestDeserializeInteroperatesWithHostCodec(t *testing.T) {
	h := newHarness(t)
	payload := guest.ReferenceProduce(10_000)
	enc := serial.Encode([]serial.Record{{Key: []byte("payload"), Value: payload}})

	// Write the host-encoded bytes into guest memory, then deserialize
	// in-sandbox.
	ptr, err := h.view.Allocate(uint32(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.view.Write(enc, ptr); err != nil {
		t.Fatal(err)
	}
	dptr, dn, err := h.view.CallPacked(guest.ExportDeserialize, uint64(ptr), uint64(len(enc)))
	if err != nil {
		t.Fatalf("guest deserialize: %v", err)
	}
	got, err := h.view.ReadView(dptr, dn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("guest-decoded payload diverges")
	}
}

func TestGuestSerializeRoundTrip(t *testing.T) {
	h := newHarness(t)
	pptr, pn, err := h.view.CallPacked(guest.ExportProduce, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	sptr, sn, err := h.view.CallPacked(guest.ExportSerialize, uint64(pptr), uint64(pn))
	if err != nil {
		t.Fatal(err)
	}
	dptr, dn, err := h.view.CallPacked(guest.ExportDeserialize, uint64(sptr), uint64(sn))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.view.ReadView(dptr, dn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, guest.ReferenceProduce(50_000)) {
		t.Fatal("round trip diverges")
	}
}

func TestGuestDeserializeRejectsCorruption(t *testing.T) {
	h := newHarness(t)
	enc := serial.Encode([]serial.Record{{Key: []byte("payload"), Value: []byte("hello")}})
	cases := map[string]func([]byte) []byte{
		"bad magic":        func(b []byte) []byte { b[0] = 'X'; return b },
		"bad count":        func(b []byte) []byte { b[4] = 9; return b },
		"missing sentinel": func(b []byte) []byte { return b[:len(b)-1] },
		"trailing bytes":   func(b []byte) []byte { return append(b, 0xFF) },
		"too short":        func(b []byte) []byte { return b[:4] },
	}
	for name, corrupt := range cases {
		buf := corrupt(append([]byte(nil), enc...))
		ptr, err := h.view.Allocate(uint32(len(buf)))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.view.Write(buf, ptr); err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.view.CallPacked(guest.ExportDeserialize, uint64(ptr), uint64(len(buf))); !errors.Is(err, wasm.TrapUnreachable) {
			t.Errorf("%s: err = %v, want unreachable trap", name, err)
		}
	}
}

func TestResizeHalfMatchesReference(t *testing.T) {
	h := newHarness(t)
	const w, h2 = 64, 32
	src := guest.ReferenceProduce(w * h2)
	ptr, err := h.view.Allocate(w * h2)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.view.Write(src, ptr); err != nil {
		t.Fatal(err)
	}
	optr, on, err := h.view.CallPacked(guest.ExportResizeHalf, uint64(ptr), w, h2)
	if err != nil {
		t.Fatal(err)
	}
	if int(on) != (w/2)*(h2/2) {
		t.Fatalf("resize output = %d bytes", on)
	}
	got, err := h.view.ReadView(optr, on)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, guest.ReferenceResizeHalf(src, w, h2)) {
		t.Fatal("resize diverges from reference")
	}
}

func TestSockSendRecvThroughKernel(t *testing.T) {
	// Two guests on the same kernel exchange a payload over a socket pair
	// using only WASI calls — the WasmEdge-baseline data path.
	k := kernel.New("node")
	acctA, acctB := &metrics.Account{}, &metrics.Account{}
	procA := k.NewProc("a", acctA)
	procB := k.NewProc("b", acctB)
	defer procA.CloseAll()
	defer procB.CloseAll()
	fdA, fdB, err := kernel.SocketPair(procA, procB)
	if err != nil {
		t.Fatal(err)
	}

	mkGuest := func(proc *kernel.Proc, acct *metrics.Account) (*wasm.Instance, *abi.View) {
		host := wasi.NewHost(proc, acct)
		imports := wasm.Imports{}
		host.AddImports(imports)
		imports.Add(abi.ImportModule, abi.ImportSendToHost, abi.SendToHostImport(nil))
		m, err := wasm.Decode(guest.Module())
		if err != nil {
			t.Fatal(err)
		}
		inst, err := wasm.Instantiate(m, imports, nil)
		if err != nil {
			t.Fatal(err)
		}
		view, err := abi.NewView(inst, acct)
		if err != nil {
			t.Fatal(err)
		}
		return inst, view
	}
	instA, viewA := mkGuest(procA, acctA)
	instB, viewB := mkGuest(procB, acctB)

	const n = 30_000
	ptr, m, err := viewA.CallPacked(guest.ExportProduce, n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := instA.Call(guest.ExportSockSendAll, uint64(fdA), uint64(ptr), uint64(m))
	if err != nil {
		t.Fatal(err)
	}
	if uint32(res[0]) != wasi.ErrnoSuccess {
		t.Fatalf("sock_send_all errno = %d", res[0])
	}

	dst, err := viewB.Allocate(n)
	if err != nil {
		t.Fatal(err)
	}
	res, err = instB.Call(guest.ExportSockRecvExact, uint64(fdB), uint64(dst), uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	if uint32(res[0]) != 0 {
		t.Fatalf("sock_recv_exact errno = %d", res[0])
	}
	sum, err := instB.Call(guest.ExportConsume, uint64(dst), uint64(n))
	if err != nil {
		t.Fatal(err)
	}
	if sum[0] != guest.ReferenceChecksum(guest.ReferenceProduce(n)) {
		t.Fatal("payload corrupted through WASI socket path")
	}
	// The WASI path must have paid staging copies on both sides.
	if acctA.Snapshot().UserCopyBytes < n || acctB.Snapshot().UserCopyBytes < n {
		t.Fatal("WASI staging copies not charged")
	}
}

func TestFillFromFile(t *testing.T) {
	h := newHarness(t)
	content := guest.ReferenceProduce(10_000)
	h.wasi.Files[7] = content
	ptr, n, err := h.view.CallPacked(guest.ExportFillFromFile, 7, uint64(len(content)))
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != len(content) {
		t.Fatalf("read %d bytes", n)
	}
	got, err := h.view.ReadView(ptr, n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("file content corrupted")
	}
	// Short file stops early.
	h.wasi.Files[8] = []byte("abc")
	_, n, err = h.view.CallPacked(guest.ExportFillFromFile, 8, 100)
	if err != nil || n != 3 {
		t.Fatalf("short read = %d, %v", n, err)
	}
}

func TestViewEnforcesRegistration(t *testing.T) {
	h := newHarness(t)
	// Reading memory the guest never announced must fail.
	if _, err := h.view.ReadView(heapProbe, 16); !errors.Is(err, abi.ErrNotRegistered) {
		t.Fatalf("unregistered read = %v", err)
	}
	// Writing memory the shim never allocated must fail.
	if err := h.view.Write([]byte("x"), heapProbe); !errors.Is(err, abi.ErrNotRegistered) {
		t.Fatalf("unregistered write = %v", err)
	}
	// Reads beyond a registered region must fail.
	ptr, n, err := h.view.CallPacked(guest.ExportProduce, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.view.ReadView(ptr, n+1); !errors.Is(err, abi.ErrNotRegistered) {
		t.Fatalf("overlong read = %v", err)
	}
}

const heapProbe = 2048

func TestPackUnpack(t *testing.T) {
	ptr, n := abi.Unpack(abi.Pack(0xDEADBEEF, 0x12345678))
	if ptr != 0xDEADBEEF || n != 0x12345678 {
		t.Fatalf("pack/unpack = %#x, %#x", ptr, n)
	}
}

func BenchmarkGuestSerialize1MB(b *testing.B) {
	view := mappedView(b)
	const n = 1 << 20
	ptr, pn, err := view.CallPacked(guest.ExportProduce, n)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sptr, _, err := view.CallPacked(guest.ExportSerialize, uint64(ptr), uint64(pn))
		if err != nil {
			b.Fatal(err)
		}
		if err := view.Deallocate(sptr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGuestDeserialize1MB(b *testing.B) {
	view := mappedView(b)
	const n = 1 << 20
	ptr, pn, err := view.CallPacked(guest.ExportProduce, n)
	if err != nil {
		b.Fatal(err)
	}
	sptr, sn, err := view.CallPacked(guest.ExportSerialize, uint64(ptr), uint64(pn))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dptr, _, err := view.CallPacked(guest.ExportDeserialize, uint64(sptr), uint64(sn))
		if err != nil {
			b.Fatal(err)
		}
		if err := view.Deallocate(dptr); err != nil {
			b.Fatal(err)
		}
	}
}

// mappedView instantiates the canonical guest the way shims do, on linear
// memory outside the Go heap (wasm.InstantiateMapped), and closes it when tb
// ends. The BenchmarkGuest* set runs on it: the four guest loops the
// data-delivery benchmark pays for (produce in every set-up and plan op,
// checksum in every verification, serialize and deserialize in the WasmEdge
// baseline).
func mappedView(tb testing.TB) *abi.View {
	tb.Helper()
	host := wasi.NewHost(kernel.New("bench").NewProc("fn", nil), nil)
	imports := wasm.Imports{}
	host.AddImports(imports)
	imports.Add(abi.ImportModule, abi.ImportSendToHost, abi.SendToHostImport(nil))
	m, err := wasm.Decode(guest.Module())
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := wasm.InstantiateMapped(m, imports, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(inst.Close)
	view, err := abi.NewView(inst, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return view
}

func BenchmarkGuestProduce1MB(b *testing.B) {
	view := mappedView(b)
	const n = 1 << 20
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, _, err := view.CallPacked(guest.ExportProduce, n)
		if err != nil {
			b.Fatal(err)
		}
		if err := view.Deallocate(ptr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGuestChecksum1MB(b *testing.B) {
	view := mappedView(b)
	const n = 1 << 20
	ptr, pn, err := view.CallPacked(guest.ExportProduce, n)
	if err != nil {
		b.Fatal(err)
	}
	consume, err := view.Instance().Func(guest.ExportConsume)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := consume.Call(uint64(ptr), uint64(pn)); err != nil {
			b.Fatal(err)
		}
	}
}

// The streaming oracle must equal the two-step form at every boundary the
// data paths care about: empty, the word/tail split, a page, a slab, the
// send window, and an odd size past 1 MiB.
func TestReferenceProduceChecksumMatchesTwoStep(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 4095, 4096,
		64<<10 - 1, 64 << 10, 64<<10 + 1, 256<<10 - 1, 256 << 10, 256<<10 + 1, 1<<20 + 3} {
		if got, want := guest.ReferenceProduceChecksum(n), guest.ReferenceChecksum(guest.ReferenceProduce(n)); got != want {
			t.Errorf("n = %d: streaming %#x, two-step %#x", n, got, want)
		}
	}
}
