package core_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/core"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
)

func TestMulticastDeliversToAllTargets(t *testing.T) {
	kSrc := kernel.New("edge")
	sSrc := newShim(t, "src", kSrc)
	src := addFn(t, sSrc, "src")

	const degree, n = 3, 1_500_000
	dsts := make([]*core.Function, degree)
	for i := range dsts {
		kd := kernel.New(fmt.Sprintf("cloud-%d", i))
		sd := newShim(t, fmt.Sprintf("s%d", i), kd)
		dsts[i] = addFn(t, sd, fmt.Sprintf("t%d", i))
	}
	if _, err := src.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}

	link := netsim.NewLink(100*netsim.Mbps, 0)
	refs, reports, err := core.MulticastTransfer(src, dsts, core.MulticastOptions{Link: link})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != degree || len(reports) != degree {
		t.Fatalf("got %d refs, %d reports", len(refs), len(reports))
	}
	for i, dst := range dsts {
		verifyDelivery(t, dst, refs[i], n)
		if reports[i].Mode != "network-multicast" {
			t.Fatalf("mode = %s", reports[i].Mode)
		}
		// Zero kernel-boundary copies on every path.
		if reports[i].Usage.KernelCopyBytes != 0 {
			t.Fatalf("target %d: %d kernel copy bytes", i, reports[i].Usage.KernelCopyBytes)
		}
		// Each flow models link sharing across the fan-out.
		if reports[i].Breakdown.Network <= 0 {
			t.Fatalf("target %d: no network time", i)
		}
	}
}

// TestMulticastSourceCostIndependentOfDegree pins the tee(2) property: the
// source reads its guest memory once and performs zero payload copies no
// matter how many targets receive the data.
func TestMulticastSourceCostIndependentOfDegree(t *testing.T) {
	sourceUsage := func(degree int) (syscalls int64, copies int64) {
		kSrc := kernel.New("edge")
		sSrc := newShim(t, "src", kSrc)
		src := addFn(t, sSrc, "src")
		dsts := make([]*core.Function, degree)
		for i := range dsts {
			kd := kernel.New(fmt.Sprintf("cloud-%d", i))
			sd := newShim(t, fmt.Sprintf("s%d", i), kd)
			dsts[i] = addFn(t, sd, fmt.Sprintf("t%d", i))
		}
		const n = 1 << 20
		if _, err := src.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
			t.Fatal(err)
		}
		before := sSrc.Account().Snapshot()
		if _, _, err := core.MulticastTransfer(src, dsts, core.MulticastOptions{}); err != nil {
			t.Fatal(err)
		}
		delta := sSrc.Account().Snapshot().Sub(before)
		return delta.Syscalls, delta.TotalCopyBytes()
	}
	sys1, cp1 := sourceUsage(1)
	sys8, cp8 := sourceUsage(8)
	if cp1 != 0 || cp8 != 0 {
		t.Fatalf("source copied bytes: %d / %d", cp1, cp8)
	}
	// Extra targets cost one tee + one connect + one close each — far less
	// than re-running the whole source pipeline per target.
	perTarget := float64(sys8-sys1) / 7
	if perTarget > 4 {
		t.Fatalf("per-target source syscalls = %.1f, want <= 4", perTarget)
	}
}

func TestMulticastValidations(t *testing.T) {
	k1 := kernel.New("n1")
	s1 := newShim(t, "s1", k1)
	src := addFn(t, s1, "src")
	if _, _, err := core.MulticastTransfer(src, nil, core.MulticastOptions{}); err == nil {
		t.Fatal("empty target list accepted")
	}
	sameVM := addFn(t, s1, "same-vm")
	if _, _, err := core.MulticastTransfer(src, []*core.Function{sameVM}, core.MulticastOptions{}); !errors.Is(err, core.ErrSameVM) {
		t.Fatalf("same-VM target = %v", err)
	}
}

// TestMulticastSameNodeKernelPath pins the shared-egress kernel path: targets
// co-located with the source receive teed page references through their
// socketpair channels — one vmsplice pass feeds every target, the source
// copies nothing, and each target pays exactly the single user-space copy
// into its linear memory. The page pool balances exactly afterwards.
func TestMulticastSameNodeKernelPath(t *testing.T) {
	k := kernel.New("edge")
	sSrc := newShim(t, "src", k)
	src := addFn(t, sSrc, "src")

	const degree, n = 4, 1_500_000
	dsts := make([]*core.Function, degree)
	for i := range dsts {
		sd := newShim(t, fmt.Sprintf("s%d", i), k)
		dsts[i] = addFn(t, sd, fmt.Sprintf("t%d", i))
	}
	if _, err := src.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	before := sSrc.Account().Snapshot()
	// A link is given, yet no same-node leg may be charged it.
	refs, reports, err := core.MulticastTransfer(src, dsts, core.MulticastOptions{Link: netsim.NewLink(100*netsim.Mbps, 0)})
	if err != nil {
		t.Fatal(err)
	}
	srcDelta := sSrc.Account().Snapshot().Sub(before)
	if srcDelta.TotalCopyBytes() != 0 {
		t.Fatalf("source copied %d bytes, want 0", srcDelta.TotalCopyBytes())
	}
	for i, dst := range dsts {
		verifyDelivery(t, dst, refs[i], n)
		if reports[i].Mode != "kernel-multicast" {
			t.Fatalf("target %d mode = %s", i, reports[i].Mode)
		}
		if reports[i].Usage.KernelCopyBytes != 0 {
			t.Fatalf("target %d: %d kernel copy bytes", i, reports[i].Usage.KernelCopyBytes)
		}
		if reports[i].Breakdown.Network != 0 {
			t.Fatalf("target %d charged wire time on a same-node leg", i)
		}
	}
	if res := k.Pool().Resident(); res != 0 {
		t.Fatalf("leaked %d resident kernel bytes", res)
	}
}

// TestMulticastSameNodeSpansHose drives a same-node fan-out whose payload
// is several hose chunks long, so the shared source pass has to wait on
// every target's drain chunk by chunk. Each target takes its own VM lock
// while the source holds only its own; the call must complete, deliver
// checksum-clean payloads and leave the page pool balanced.
func TestMulticastSameNodeSpansHose(t *testing.T) {
	k := kernel.New("edge")
	shim := func(name string) *core.Shim {
		s, err := core.NewShim(core.ShimConfig{
			Name: name, Workflow: wf, Kernel: k, Module: guest.Module(), DataHoseBytes: 256 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	src := addFn(t, shim("src"), "src")
	dsts := []*core.Function{addFn(t, shim("s0"), "t0"), addFn(t, shim("s1"), "t1")}
	const n = 700_000 // three hose chunks
	if _, err := src.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	type result struct {
		refs []core.InboundRef
		err  error
	}
	done := make(chan result, 1)
	go func() {
		refs, _, err := core.MulticastTransfer(src, dsts, core.MulticastOptions{})
		done <- result{refs, err}
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("same-node multi-chunk multicast did not return")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	for i, dst := range dsts {
		verifyDelivery(t, dst, r.refs[i], n)
	}
	if res := k.Pool().Resident(); res != 0 {
		t.Fatalf("leaked %d resident kernel bytes", res)
	}
}

// TestWarmSameNodeMulticastOpensNothing pins the warm all-same-node
// fan-out: once the pair channels are cached, a further call tees over the
// source shim's own hose and issues only the data plane on the source —
// one vmsplice, one tee and one splice for this one-chunk payload, no pipe
// and no close — leaving it holding exactly the descriptors it held before.
func TestWarmSameNodeMulticastOpensNothing(t *testing.T) {
	k := kernel.New("edge")
	sSrc := newShim(t, "src", k)
	src := addFn(t, sSrc, "src")
	dsts := []*core.Function{addFn(t, newShim(t, "s0", k), "t0"), addFn(t, newShim(t, "s1", k), "t1")}
	const n = 300_000
	cast := func() int64 {
		t.Helper()
		if _, err := src.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
			t.Fatal(err)
		}
		before := sSrc.Account().Snapshot()
		refs, _, err := core.MulticastTransfer(src, dsts, core.MulticastOptions{})
		if err != nil {
			t.Fatal(err)
		}
		syscalls := sSrc.Account().Snapshot().Sub(before).Syscalls
		for i, dst := range dsts {
			verifyDelivery(t, dst, refs[i], n)
		}
		return syscalls
	}
	cast() // caches the source's channel to each target
	fds := sSrc.Proc().NumFDs()
	if got := cast(); got != 3 {
		t.Fatalf("warm multicast issued %d source syscalls, want 3 (vmsplice, tee, splice)", got)
	}
	if got := sSrc.Proc().NumFDs(); got != fds {
		t.Fatalf("source holds %d descriptors after a multicast, want %d", got, fds)
	}
}

// TestMulticastOverlapAttribution: every target of a multi-chunk cross-node
// fan-out carries a positive Overlap credit, and the credit never pulls the
// critical path below the wire time alone.
func TestMulticastOverlapAttribution(t *testing.T) {
	sSrc, err := core.NewShim(core.ShimConfig{
		Name: "src", Workflow: wf, Kernel: kernel.New("edge"), Module: guest.Module(), DataHoseBytes: 256 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sSrc.Close)
	src := addFn(t, sSrc, "src")
	const degree, n = 3, 1 << 20 // four hose chunks
	dsts := make([]*core.Function, degree)
	for i := range dsts {
		sd := newShim(t, fmt.Sprintf("s%d", i), kernel.New(fmt.Sprintf("cloud-%d", i)))
		dsts[i] = addFn(t, sd, fmt.Sprintf("t%d", i))
	}
	if _, err := src.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(100*netsim.Mbps, 0)
	refs, reports, err := core.MulticastTransfer(src, dsts, core.MulticastOptions{Link: link})
	if err != nil {
		t.Fatal(err)
	}
	for i, dst := range dsts {
		verifyDelivery(t, dst, refs[i], n)
		bd := reports[i].Breakdown
		if bd.Overlap <= 0 {
			t.Fatalf("target %d: multi-chunk multicast reported no overlap (%v)", i, bd.Overlap)
		}
		if bd.Total() < bd.Network {
			t.Fatalf("target %d: critical path %v below the wire time %v", i, bd.Total(), bd.Network)
		}
	}
}

// TestMulticastMixedSetSplits covers the mixed fan-out: one tee group feeds
// a same-node socketpair and two cross-node connections from the same
// source pass, each leg reporting its own mode. The cross-node legs share
// the cast's one link — each is charged its transfer time with two flows on
// it — and the same-node leg crosses no wire.
func TestMulticastMixedSetSplits(t *testing.T) {
	kEdge, kCloud, kFar := kernel.New("edge"), kernel.New("cloud"), kernel.New("far")
	sSrc := newShim(t, "src", kEdge)
	src := addFn(t, sSrc, "src")
	dsts := []*core.Function{
		addFn(t, newShim(t, "sl", kEdge), "near"),
		addFn(t, newShim(t, "sr", kCloud), "remote"),
		addFn(t, newShim(t, "sf", kFar), "far"),
	}

	const n = 900_000
	if _, err := src.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(100*netsim.Mbps, time.Millisecond)
	refs, reports, err := core.MulticastTransfer(src, dsts, core.MulticastOptions{Link: link})
	if err != nil {
		t.Fatal(err)
	}
	for i, dst := range dsts {
		verifyDelivery(t, dst, refs[i], n)
	}
	if reports[0].Mode != "kernel-multicast" || reports[1].Mode != "network-multicast" || reports[2].Mode != "network-multicast" {
		t.Fatalf("modes = %s / %s / %s", reports[0].Mode, reports[1].Mode, reports[2].Mode)
	}
	if reports[0].Breakdown.Network != 0 {
		t.Fatal("same-node leg charged wire time")
	}
	for i := 1; i < len(dsts); i++ {
		if got, want := reports[i].Breakdown.Network, link.TransferTime(n, 2); got != want {
			t.Fatalf("remote leg %d network = %v, want %v (two flows on the link)", i, got, want)
		}
	}
	if res := kEdge.Pool().Resident() + kCloud.Pool().Resident() + kFar.Pool().Resident(); res != 0 {
		t.Fatalf("leaked %d resident kernel bytes", res)
	}
}

// TestMulticastWithoutLinkChargesNoWire: a cast given no Link attributes no
// wire time, even to cross-node legs.
func TestMulticastWithoutLinkChargesNoWire(t *testing.T) {
	src := addFn(t, newShim(t, "src", kernel.New("edge")), "src")
	dsts := []*core.Function{
		addFn(t, newShim(t, "s1", kernel.New("cloud-1")), "t1"),
		addFn(t, newShim(t, "s2", kernel.New("cloud-2")), "t2"),
	}
	const n = 64 << 10
	if _, err := src.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	refs, reports, err := core.MulticastTransfer(src, dsts, core.MulticastOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, dst := range dsts {
		verifyDelivery(t, dst, refs[i], n)
		if reports[i].Mode != "network-multicast" || reports[i].Breakdown.Network != 0 {
			t.Fatalf("leg %d: mode %q, network %v, want network-multicast and no wire time", i, reports[i].Mode, reports[i].Breakdown.Network)
		}
	}
}

// TestMulticastSourceSyscallsFlatSameNode is the same-node analogue of the
// degree-independence test: extra co-located targets cost the source one
// tee per chunk and nothing else — no extra reads of guest memory, no
// copies, no per-target connections.
func TestMulticastSourceSyscallsFlatSameNode(t *testing.T) {
	sourceUsage := func(degree int) (syscalls int64, copies int64) {
		k := kernel.New("edge")
		sSrc := newShim(t, "src", k)
		src := addFn(t, sSrc, "src")
		dsts := make([]*core.Function, degree)
		for i := range dsts {
			sd := newShim(t, fmt.Sprintf("s%d", i), k)
			dsts[i] = addFn(t, sd, fmt.Sprintf("t%d", i))
		}
		const n = 1 << 20
		if _, err := src.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
			t.Fatal(err)
		}
		before := sSrc.Account().Snapshot()
		if _, _, err := core.MulticastTransfer(src, dsts, core.MulticastOptions{}); err != nil {
			t.Fatal(err)
		}
		delta := sSrc.Account().Snapshot().Sub(before)
		return delta.Syscalls, delta.TotalCopyBytes()
	}
	sys1, cp1 := sourceUsage(1)
	sys8, cp8 := sourceUsage(8)
	if cp1 != 0 || cp8 != 0 {
		t.Fatalf("source copied bytes: %d / %d", cp1, cp8)
	}
	// Extra same-node targets cost one socketpair + one tee per chunk each.
	perTarget := float64(sys8-sys1) / 7
	if perTarget > 4 {
		t.Fatalf("per-target source syscalls = %.1f, want <= 4", perTarget)
	}
}

// TestMulticastSingleTargetEqualsUnicast: a unicast is a one-leg cast. A
// warm one-target cross-node MulticastTransfer and a warm NetworkTransfer of
// the same payload over the same link run the same engine with the same
// stage pair, so they report the same syscalls, copies and wire time and
// deliver the same bytes.
func TestMulticastSingleTargetEqualsUnicast(t *testing.T) {
	k1, k2 := kernel.New("edge"), kernel.New("cloud")
	s1, s2 := newShim(t, "s1", k1), newShim(t, "s2", k2)
	src, dst := addFn(t, s1, "a"), addFn(t, s2, "b")
	const n = 300_000
	if _, err := src.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	link := netsim.NewLink(100*netsim.Mbps, time.Millisecond)
	unicast := func() metrics.TransferReport {
		ref, report, err := core.NetworkTransfer(src, dst, core.NetworkOptions{Link: link})
		if err != nil {
			t.Fatal(err)
		}
		verifyDelivery(t, dst, ref, n)
		if err := dst.Deallocate(ref.Ptr); err != nil {
			t.Fatal(err)
		}
		return report
	}
	unicast() // establishes the pair's channel: both runs below are warm
	want := unicast()
	refs, reports, err := core.MulticastTransfer(src, []*core.Function{dst}, core.MulticastOptions{Link: link})
	if err != nil {
		t.Fatal(err)
	}
	verifyDelivery(t, dst, refs[0], n)
	got := reports[0]
	if got.Usage.Syscalls != want.Usage.Syscalls {
		t.Fatalf("syscalls: cast %d, unicast %d", got.Usage.Syscalls, want.Usage.Syscalls)
	}
	if got.Usage.UserCopyBytes != n || got.Usage.UserCopyBytes != want.Usage.UserCopyBytes ||
		got.Usage.KernelCopyBytes != want.Usage.KernelCopyBytes {
		t.Fatalf("copies: cast %d user / %d kernel, unicast %d / %d", got.Usage.UserCopyBytes,
			got.Usage.KernelCopyBytes, want.Usage.UserCopyBytes, want.Usage.KernelCopyBytes)
	}
	if got.Breakdown.Network != want.Breakdown.Network || got.Breakdown.Network <= 0 {
		t.Fatalf("network: cast %v, unicast %v", got.Breakdown.Network, want.Breakdown.Network)
	}
	if got.Bytes != want.Bytes {
		t.Fatalf("bytes: cast %d, unicast %d", got.Bytes, want.Bytes)
	}
}

func TestKernelTeeSemantics(t *testing.T) {
	k := kernel.New("n")
	p := k.NewProc("p", nil)
	defer p.CloseAll()
	rfd, wfd := p.PipeSized(1 << 20)
	r2, w2 := p.PipeSized(1 << 20)
	payload := []byte("tee leaves the source readable")
	if _, err := p.Vmsplice(wfd, payload); err != nil {
		t.Fatal(err)
	}
	n, err := p.Tee(rfd, w2, len(payload))
	if err != nil || n != len(payload) {
		t.Fatalf("tee = %d, %v", n, err)
	}
	// Both pipes now hold the payload.
	buf := make([]byte, len(payload))
	if _, err := p.Read(r2, buf); err != nil || string(buf) != string(payload) {
		t.Fatalf("clone read = %q, %v", buf, err)
	}
	if _, err := p.Read(rfd, buf); err != nil || string(buf) != string(payload) {
		t.Fatalf("original read after tee = %q, %v", buf, err)
	}
	// tee from a non-pipe fails.
	k2 := kernel.New("n2")
	q := k2.NewProc("q", nil)
	defer q.CloseAll()
	cfd, _ := kernel.Connect(p, q)
	if _, err := p.Tee(cfd, w2, 1); !errors.Is(err, kernel.ErrNotSupported) {
		t.Fatalf("tee from socket = %v", err)
	}
	if _, err := p.Tee(rfd, w2, 0); !errors.Is(err, kernel.ErrInvalid) {
		t.Fatalf("tee n=0 = %v", err)
	}
}

// TestMulticastReportsSumToAccounts: a fan-out's reports add up to what its
// accounts charged. The ephemeral channels' teardown belongs to some leg's
// report, and a VM holding two legs is counted once, not once per leg. Cold
// (first call, channels established) and warm, for distinct same-node
// targets and for a set with two targets in one VM.
func TestMulticastReportsSumToAccounts(t *testing.T) {
	const n = 1 << 20
	for _, c := range []struct {
		name   string
		shared bool // the last two targets live in one VM
	}{{"distinct", false}, {"shared-vm", true}} {
		t.Run(c.name, func(t *testing.T) {
			k := kernel.New("edge")
			sSrc := newShim(t, "src", k)
			src := addFn(t, sSrc, "src")
			shims := []*core.Shim{sSrc}
			dsts := make([]*core.Function, 8)
			for i := range dsts {
				if c.shared && i == len(dsts)-1 {
					dsts[i] = addFn(t, shims[len(shims)-1], fmt.Sprintf("t%d", i))
					continue
				}
				sd := newShim(t, fmt.Sprintf("s%d", i), k)
				shims = append(shims, sd)
				dsts[i] = addFn(t, sd, fmt.Sprintf("t%d", i))
			}
			if _, err := src.CallPacked(guest.ExportProduce, n); err != nil {
				t.Fatal(err)
			}
			for _, phase := range []string{"cold", "warm"} {
				t.Run(phase, func(t *testing.T) {
					var want metrics.Usage
					before := make([]metrics.Usage, len(shims))
					for i, s := range shims {
						before[i] = s.Account().Snapshot()
					}
					refs, reports, err := core.MulticastTransfer(src, dsts, core.MulticastOptions{})
					if err != nil {
						t.Fatal(err)
					}
					for i, s := range shims {
						want = want.Add(s.Account().Snapshot().Sub(before[i]))
					}
					var got metrics.Usage
					for i, r := range reports {
						verifyDelivery(t, dsts[i], refs[i], n)
						got = got.Add(r.Usage)
					}
					if got.UserCopyBytes != want.UserCopyBytes || got.Syscalls != want.Syscalls {
						t.Fatalf("reports sum to %d user copy bytes / %d syscalls, accounts charged %d / %d",
							got.UserCopyBytes, got.Syscalls, want.UserCopyBytes, want.Syscalls)
					}
					if want.UserCopyBytes != int64(len(dsts))*n {
						t.Fatalf("accounts charged %d user copy bytes for %d deliveries of %d", want.UserCopyBytes, len(dsts), n)
					}
					for i := range dsts {
						if err := dsts[i].Deallocate(refs[i].Ptr); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		})
	}
}
