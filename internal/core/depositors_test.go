package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
)

// pieceGate orders one striped drain so that both depositors copy whatever
// the scheduler does: once the ingress has read a chunk it is held at its
// next syscall, and at its first take from the slot, until the caller has
// claimed a piece; the caller holds its first piece until the ingress has
// taken one. byCaller counts the bytes of the pieces the caller claimed; the
// caller is the goroutine that runs the transfer, so it reads them once the
// transfer has returned.
type pieceGate struct {
	read                atomic.Bool // the ingress has read a chunk: pieces are out
	claimed, took       chan struct{}
	claimOnce, tookOnce sync.Once
	byCaller            int
}

func newPieceGate() *pieceGate {
	return &pieceGate{claimed: make(chan struct{}), took: make(chan struct{})}
}

// syscall is the target process's fault hook; it never fails the call.
func (g *pieceGate) syscall(op string) error {
	if g.read.Load() {
		<-g.claimed
	}
	if op == "readrefs" {
		g.read.Store(true)
	}
	return nil
}

// take is the drain's claimed gate.
func (g *pieceGate) take(byCaller bool, n int) {
	if byCaller {
		g.byCaller += n
		g.claimOnce.Do(func() { close(g.claimed) })
		<-g.took
		return
	}
	<-g.claimed
	g.tookOnce.Do(func() { close(g.took) })
}

// depositorShims is a source shim on "edge" and target shims on "edge"
// and "cloud", each with a hose of the given size, and one function in each.
func depositorShims(t *testing.T, hose int) (src, near, far *Function) {
	t.Helper()
	wf := Workflow{Name: "wf-test", Tenant: "tenant-a"}
	edge, cloud := kernel.New("edge"), kernel.New("cloud")
	mk := func(name string, k *kernel.Kernel) *Function {
		s, err := NewShim(ShimConfig{Name: name, Workflow: wf, Kernel: k, Module: guest.Module(), DataHoseBytes: hose})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		f, err := s.AddFunction(name)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	return mk("a", edge), mk("near", edge), mk("far", cloud)
}

// landed checks the n-byte delivery at ref in f by the guest's checksum and
// hands the region back.
func landed(t *testing.T, f *Function, ref InboundRef, n int) {
	t.Helper()
	res, err := f.Call(guest.ExportConsume, uint64(ref.Ptr), uint64(ref.Len))
	if err != nil {
		t.Fatal(err)
	}
	if want := ReferenceSum(n); res[0] != want {
		t.Fatalf("%d bytes: checksum %#x, want %#x", n, res[0], want)
	}
	if err := f.Deallocate(ref.Ptr); err != nil {
		t.Fatal(err)
	}
}

// TestStripedDrainUsesBothDepositors proves the caller's goroutine is the
// hose's second depositor: on a payload of more than one piece both
// goroutines copy bytes into the target, together exactly the payload, and
// a one-piece payload publishes nothing. The hose is four pieces, so the
// cases are one piece, one chunk of four pieces, three chunks and sixteen.
// pieceGate fixes the order of the claims, so the split does not depend on
// scheduling or the core count.
func TestStripedDrainUsesBothDepositors(t *testing.T) {
	const hose = 4 * depositPiece
	fa, _, fb := depositorShims(t, hose)
	s2 := fb.shim
	defer s2.proc.InjectFault(nil)

	for _, tc := range []struct {
		n          int
		wantCaller bool
	}{
		{depositPiece, false},
		{hose, true},
		{3 * hose, true},
		{16 * hose, true},
	} {
		if _, err := fa.CallPacked(guest.ExportProduce, uint64(tc.n)); err != nil {
			t.Fatal(err)
		}
		g := newPieceGate()
		s2.proc.InjectFault(g.syscall)
		spec := pipelineSpec{mode: "network", kind: chanNetwork, src: fa, dst: fb, chunkBytes: hose, gates: &PipelineGates{claimed: g.take}}
		ref, rep, err := unicast(networkOps{}, &spec)
		s2.proc.InjectFault(nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Usage.UserCopyBytes != int64(tc.n) {
			t.Fatalf("%d bytes: %d copied bytes charged", tc.n, rep.Usage.UserCopyBytes)
		}
		if (g.byCaller > 0) != tc.wantCaller || g.byCaller >= tc.n {
			t.Fatalf("%d bytes: the caller deposited %d", tc.n, g.byCaller)
		}
		landed(t, fb, ref, tc.n)
	}
}

// TestStripedCastLegUsesBothDepositors: a cast leg drains as a unicast does.
// A one-target cast above the hose is striped: the caller, joining its one
// leg, and the leg's worker both deposit pieces, together exactly the
// payload, to a cross-node target and a same-node one alike, with pieceGate
// fixing the split — at GOMAXPROCS 2 and at 1 alike.
func TestStripedCastLegUsesBothDepositors(t *testing.T) {
	const hose, n = 4 * depositPiece, 3 * 4 * depositPiece
	fa, near, far := depositorShims(t, hose)
	if _, err := fa.CallPacked(guest.ExportProduce, n); err != nil {
		t.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, dst := range []*Function{far, near} {
		for _, p := range []int{2, 1} {
			runtime.GOMAXPROCS(p)
			g := newPieceGate()
			dst.shim.proc.InjectFault(g.syscall)
			refs, reps, err := MulticastTransfer(fa, []*Function{dst}, MulticastOptions{Gates: &PipelineGates{claimed: g.take}})
			dst.shim.proc.InjectFault(nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := reps[0].Usage.UserCopyBytes; got != n {
				t.Fatalf("%s at %d Ps: %d copied bytes charged, want %d", dst.name, p, got, n)
			}
			if g.byCaller == 0 || g.byCaller >= n {
				t.Fatalf("%s at %d Ps: the caller deposited %d of %d bytes", dst.name, p, g.byCaller, n)
			}
			landed(t, dst, refs[0], n)
		}
	}
}
