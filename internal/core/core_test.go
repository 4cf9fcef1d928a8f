package core_test

import (
	"errors"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/core"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/pagebuf"
)

var wf = core.Workflow{Name: "wf-test", Tenant: "tenant-a"}

func newShim(t *testing.T, name string, k *kernel.Kernel) *core.Shim {
	t.Helper()
	s, err := core.NewShim(core.ShimConfig{
		Name:     name,
		Workflow: wf,
		Kernel:   k,
		Module:   guest.Module(),
	})
	if err != nil {
		t.Fatalf("shim %s: %v", name, err)
	}
	t.Cleanup(s.Close)
	return s
}

func addFn(t *testing.T, s *core.Shim, name string) *core.Function {
	t.Helper()
	f, err := s.AddFunction(name)
	if err != nil {
		t.Fatalf("add %s: %v", name, err)
	}
	return f
}

// verifyDelivery checks the delivered bytes inside dst via the guest's own
// checksum.
func verifyDelivery(t *testing.T, dst *core.Function, ref core.InboundRef, n int) {
	t.Helper()
	res, err := dst.Call(guest.ExportConsume, uint64(ref.Ptr), uint64(ref.Len))
	if err != nil {
		t.Fatalf("consume: %v", err)
	}
	want := guest.ReferenceChecksum(guest.ReferenceProduce(n))
	if res[0] != want {
		t.Fatalf("checksum mismatch: got %#x want %#x", res[0], want)
	}
}

func TestShimRequiresKernelAndModule(t *testing.T) {
	if _, err := core.NewShim(core.ShimConfig{Module: guest.Module()}); err == nil {
		t.Fatal("missing kernel accepted")
	}
	if _, err := core.NewShim(core.ShimConfig{Kernel: kernel.New("n")}); err == nil {
		t.Fatal("missing module accepted")
	}
}

func TestShimLifecycleAndBundle(t *testing.T) {
	k := kernel.New("node-1")
	s := newShim(t, "shim-a", k)
	if s.ColdStart() < 0 {
		t.Fatal("negative cold start")
	}
	b := s.Bundle()
	if b.SpecVersion == "" || b.BinaryBytes != len(guest.Module()) {
		t.Fatalf("bundle = %+v", b)
	}
	if b.Annotations["io.roadrunner.workflow"] != wf.Name {
		t.Fatal("workflow annotation missing")
	}
	before := s.ColdStart()
	addFn(t, s, "a")
	if s.ColdStart() < before {
		t.Fatal("AddFunction did not accumulate cold start")
	}
}

func TestUserSpaceTransfer(t *testing.T) {
	k := kernel.New("node-1")
	s := newShim(t, "shim", k)
	fa, fb := addFn(t, s, "a"), addFn(t, s, "b")

	const n = 300_000
	if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	ref, report, err := core.UserSpaceTransfer(fa, fb, core.UserOptions{})
	if err != nil {
		t.Fatal(err)
	}
	verifyDelivery(t, fb, ref, n)

	if report.Mode != "user" || report.Bytes != n {
		t.Fatalf("report = %+v", report)
	}
	// User-space mode: exactly one user-space copy, zero kernel copies,
	// zero serialization, zero network.
	if report.Usage.UserCopyBytes != n {
		t.Fatalf("user copies = %d, want %d", report.Usage.UserCopyBytes, n)
	}
	if report.Usage.KernelCopyBytes != 0 {
		t.Fatalf("kernel copies = %d, want 0", report.Usage.KernelCopyBytes)
	}
	if report.Breakdown.Serialization != 0 || report.Breakdown.Network != 0 {
		t.Fatalf("breakdown = %+v", report.Breakdown)
	}
	if report.Breakdown.WasmIO <= 0 {
		t.Fatal("WasmIO time not measured")
	}
}

func TestUserSpaceTransferRequiresSameVM(t *testing.T) {
	k := kernel.New("node-1")
	s1, s2 := newShim(t, "s1", k), newShim(t, "s2", k)
	fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")
	if _, _, err := core.UserSpaceTransfer(fa, fb, core.UserOptions{}); !errors.Is(err, core.ErrDifferentVM) {
		t.Fatalf("err = %v", err)
	}
}

func TestTransferWithoutOutputFails(t *testing.T) {
	k := kernel.New("node-1")
	s := newShim(t, "s", k)
	fa, fb := addFn(t, s, "a"), addFn(t, s, "b")
	// No produce: locate returns an empty region; transfer of zero bytes
	// succeeds trivially, but Output() must report the condition.
	if _, err := fa.Output(); !errors.Is(err, core.ErrNoOutput) {
		t.Fatalf("Output = %v", err)
	}
	if _, _, err := core.UserSpaceTransfer(fa, fb, core.UserOptions{}); err != nil {
		t.Fatalf("zero transfer: %v", err)
	}
}

func TestKernelSpaceTransfer(t *testing.T) {
	k := kernel.New("node-1")
	s1, s2 := newShim(t, "s1", k), newShim(t, "s2", k)
	fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")

	const n = 500_000
	if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	ref, report, err := core.KernelSpaceTransfer(fa, fb, core.KernelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	verifyDelivery(t, fb, ref, n)

	if report.Mode != "kernel" {
		t.Fatalf("mode = %s", report.Mode)
	}
	// Kernel mode: payload crosses the kernel boundary exactly twice
	// (copy_from_user + copy into linear memory), serialization-free.
	if report.Usage.KernelCopyBytes != 2*n {
		t.Fatalf("kernel copies = %d, want %d", report.Usage.KernelCopyBytes, 2*n)
	}
	if report.Breakdown.Serialization != 0 {
		t.Fatal("kernel mode serialized")
	}
	if report.Usage.Syscalls == 0 || report.Breakdown.Transfer <= 0 {
		t.Fatalf("transfer accounting missing: %+v", report)
	}
}

func TestKernelSpaceTransferValidations(t *testing.T) {
	k1, k2 := kernel.New("n1"), kernel.New("n2")
	s1 := newShim(t, "s1", k1)
	s2 := newShim(t, "s2", k2)
	fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")
	if _, _, err := core.KernelSpaceTransfer(fa, fb, core.KernelOptions{}); !errors.Is(err, core.ErrDifferentNode) {
		t.Fatalf("cross-node kernel transfer = %v", err)
	}
	fc := addFn(t, s1, "c")
	if _, _, err := core.KernelSpaceTransfer(fa, fc, core.KernelOptions{}); !errors.Is(err, core.ErrSameVM) {
		t.Fatalf("same-VM kernel transfer = %v", err)
	}
}

func TestNetworkTransfer(t *testing.T) {
	k1, k2 := kernel.New("edge"), kernel.New("cloud")
	s1, s2 := newShim(t, "s1", k1), newShim(t, "s2", k2)
	fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")

	const n = 2_000_000
	if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(100*netsim.Mbps, 0)
	ref, report, err := core.NetworkTransfer(fa, fb, core.NetworkOptions{Link: link})
	if err != nil {
		t.Fatal(err)
	}
	verifyDelivery(t, fb, ref, n)

	// Near-zero copy: the only payload copy is the final write into the
	// target's linear memory (user space). Zero kernel boundary copies.
	if report.Usage.KernelCopyBytes != 0 {
		t.Fatalf("kernel copies = %d, want 0 (near-zero copy violated)", report.Usage.KernelCopyBytes)
	}
	if report.Usage.UserCopyBytes != n {
		t.Fatalf("user copies = %d, want %d", report.Usage.UserCopyBytes, n)
	}
	if report.Breakdown.Serialization != 0 {
		t.Fatal("network mode serialized")
	}
	// Modeled wire time for 2 MB at 100 Mbps is 160 ms.
	if report.Breakdown.Network < 150_000_000 || report.Breakdown.Network > 170_000_000 {
		t.Fatalf("network time = %v", report.Breakdown.Network)
	}
	if link.Carried() != n {
		t.Fatalf("link carried %d", link.Carried())
	}
}

// TestAlgorithm1SyscallTrace pins the syscall sequence of network transfers
// to Algorithm 1's structure across the channel-cache lifecycle. Cold (first
// transfer of a pair): connect, hose creation, one vmsplice+splice pair per
// chunk on the source, splice+readrefs per chunk on the target — teardown
// belongs to channel eviction, not the transfer. Warm: the per-chunk data
// plane only, zero connect/pipe syscalls. NoChannelCache: the paper's
// original per-call trace including close_all.
func TestAlgorithm1SyscallTrace(t *testing.T) {
	k1, k2 := kernel.New("edge"), kernel.New("cloud")
	s1, err := core.NewShim(core.ShimConfig{
		Name: "s1", Workflow: wf, Kernel: k1, Module: guest.Module(),
		DataHoseBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := core.NewShim(core.ShimConfig{
		Name: "s2", Workflow: wf, Kernel: k2, Module: guest.Module(),
		DataHoseBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")

	const n = 3 << 20 // exactly 3 hose-sized chunks
	if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	trace := func(opts core.NetworkOptions) (metrics.Usage, metrics.Usage) {
		srcBefore := s1.Account().Snapshot()
		dstBefore := s2.Account().Snapshot()
		ref, _, err := core.NetworkTransfer(fa, fb, opts)
		if err != nil {
			t.Fatal(err)
		}
		verifyDelivery(t, fb, ref, n)
		return s1.Account().Snapshot().Sub(srcBefore), s2.Account().Snapshot().Sub(dstBefore)
	}

	// Cold: connect(1) + pipe(1) + per chunk (vmsplice 1 + splice 1)*3 = 8
	// on the source; connect(1) + pipe(1) + (splice 1 + readrefs 1)*3 = 8
	// on the target. No per-call teardown — the hose persists.
	src, dst := trace(core.NetworkOptions{})
	if src.Syscalls != 8 || dst.Syscalls != 8 {
		t.Fatalf("cold syscalls = %d/%d, want 8/8", src.Syscalls, dst.Syscalls)
	}
	if src.TotalCopyBytes() != 0 {
		t.Fatalf("source copied %d bytes, want 0", src.TotalCopyBytes())
	}
	if dst.KernelCopyBytes != 0 || dst.UserCopyBytes != n {
		t.Fatalf("target copies = %d kernel / %d user", dst.KernelCopyBytes, dst.UserCopyBytes)
	}

	// Warm: only the per-chunk data plane — (vmsplice+splice)*3 = 6 on the
	// source, (splice+readrefs)*3 = 6 on the target; the warm path issues
	// zero connect/pipe/close syscalls while moving identical bytes.
	src, dst = trace(core.NetworkOptions{})
	if src.Syscalls != 6 || dst.Syscalls != 6 {
		t.Fatalf("warm syscalls = %d/%d, want 6/6", src.Syscalls, dst.Syscalls)
	}
	if src.TotalCopyBytes() != 0 || dst.KernelCopyBytes != 0 || dst.UserCopyBytes != n {
		t.Fatalf("warm copies: src=%d dstKernel=%d dstUser=%d", src.TotalCopyBytes(), dst.KernelCopyBytes, dst.UserCopyBytes)
	}

	// NoChannelCache: the original per-call trace, teardown included —
	// 8 + close rfd, wfd, cfd (3) = 11 per side.
	src, dst = trace(core.NetworkOptions{NoChannelCache: true})
	if src.Syscalls != 11 || dst.Syscalls != 11 {
		t.Fatalf("uncached syscalls = %d/%d, want 11/11", src.Syscalls, dst.Syscalls)
	}
}

func TestNetworkTransferValidations(t *testing.T) {
	k := kernel.New("n1")
	s1, s2 := newShim(t, "s1", k), newShim(t, "s2", k)
	fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")
	if _, _, err := core.NetworkTransfer(fa, fb, core.NetworkOptions{}); !errors.Is(err, core.ErrSameNode) {
		t.Fatalf("same-node network transfer = %v", err)
	}
	fc := addFn(t, s1, "c")
	if _, _, err := core.NetworkTransfer(fa, fc, core.NetworkOptions{}); !errors.Is(err, core.ErrSameVM) {
		t.Fatalf("same-VM network transfer = %v", err)
	}
}

func TestNetworkTransferCopyPathAblation(t *testing.T) {
	k1, k2 := kernel.New("n1"), kernel.New("n2")
	s1, s2 := newShim(t, "s1", k1), newShim(t, "s2", k2)
	fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")

	const n = 1_000_000
	if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	ref, report, err := core.NetworkTransfer(fa, fb, core.NetworkOptions{ForceCopyPath: true})
	if err != nil {
		t.Fatal(err)
	}
	verifyDelivery(t, fb, ref, n)
	// Copy path: payload crosses user→kernel and kernel→user.
	if report.Usage.KernelCopyBytes != 2*n {
		t.Fatalf("kernel copies = %d, want %d", report.Usage.KernelCopyBytes, 2*n)
	}
}

func TestNetworkTransferSerializeAblation(t *testing.T) {
	k1, k2 := kernel.New("n1"), kernel.New("n2")
	s1, s2 := newShim(t, "s1", k1), newShim(t, "s2", k2)
	fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")

	const n = 200_000
	if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	ref, report, err := core.NetworkTransfer(fa, fb, core.NetworkOptions{SerializeFirst: true})
	if err != nil {
		t.Fatal(err)
	}
	verifyDelivery(t, fb, ref, n)
	if report.Breakdown.Serialization <= 0 {
		t.Fatal("serialization ablation did not measure codec time")
	}
	// Serialized bytes on the wire exceed the raw payload.
	if report.Bytes <= n {
		t.Fatalf("wire bytes = %d, want > %d", report.Bytes, n)
	}
}

func TestSendToHostRegistersOutput(t *testing.T) {
	k := kernel.New("n1")
	s := newShim(t, "s", k)
	fa, fb := addFn(t, s, "a"), addFn(t, s, "b")
	const n = 10_000
	if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	// send_output announces the region via the send_to_host import.
	if _, err := fa.Call(guest.ExportSendOutput); err != nil {
		t.Fatal(err)
	}
	out, err := fa.Output()
	if err != nil || out.Len != n {
		t.Fatalf("output after send_to_host = %+v, %v", out, err)
	}
	ref, _, err := core.UserSpaceTransfer(fa, fb, core.UserOptions{})
	if err != nil {
		t.Fatal(err)
	}
	verifyDelivery(t, fb, ref, n)
}

func TestChainedTransfersAcrossModes(t *testing.T) {
	// a --user--> b --kernel--> c --network--> d, verifying payload
	// integrity through all three mechanisms chained.
	k1, k2 := kernel.New("edge"), kernel.New("cloud")
	s1 := newShim(t, "s1", k1)
	s2 := newShim(t, "s2", k1)
	s3 := newShim(t, "s3", k2)
	fa, fb := addFn(t, s1, "a"), addFn(t, s1, "b")
	fc := addFn(t, s2, "c")
	fd := addFn(t, s3, "d")

	const n = 100_000
	if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.UserSpaceTransfer(fa, fb, core.UserOptions{}); err != nil {
		t.Fatal(err)
	}
	// b's inbound data becomes its output for the next hop: re-register
	// via set_output.
	refB, _, err := core.UserSpaceTransfer(fa, fb, core.UserOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.Call("set_output", uint64(refB.Ptr), uint64(refB.Len)); err != nil {
		t.Fatal(err)
	}
	refC, _, err := core.KernelSpaceTransfer(fb, fc, core.KernelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Call("set_output", uint64(refC.Ptr), uint64(refC.Len)); err != nil {
		t.Fatal(err)
	}
	refD, _, err := core.NetworkTransfer(fc, fd, core.NetworkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	verifyDelivery(t, fd, refD, n)
}

func TestHoseLeavesNoResidentPages(t *testing.T) {
	k1, k2 := kernel.New("n1"), kernel.New("n2")
	s1, s2 := newShim(t, "s1", k1), newShim(t, "s2", k2)
	fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")
	if _, err := fa.CallPacked(guest.ExportProduce, 512*1024); err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.NetworkTransfer(fa, fb, core.NetworkOptions{}); err != nil {
		t.Fatal(err)
	}
	if res := k1.Pool().Resident() + k2.Pool().Resident(); res != 0 {
		t.Fatalf("leaked %d resident kernel bytes", res)
	}
	_ = pagebuf.PageSize
}
