package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
)

// spyOps is the network stage pair reporting, after each drain, the bytes
// the caller's goroutine copied.
type spyOps struct {
	byCaller int
}

func (o *spyOps) egress(st *pipelineState) (OutputRef, error) { return networkOps{}.egress(st) }

func (o *spyOps) ingress(st *pipelineState, out OutputRef) (InboundRef, error) {
	ref, err := networkOps{}.ingress(st, out)
	// The drain has joined: the caller's count is settled.
	o.byCaller = st.callerDeposited
	return ref, err
}

// pieceGate orders one striped drain so that both depositors copy whatever
// the scheduler does: once the ingress has read a chunk it is held at its
// next syscall, and at its first take from the slot, until the caller has
// claimed a piece; the caller holds its first piece until the ingress has
// taken one.
type pieceGate struct {
	read                atomic.Bool // the ingress has read a chunk: pieces are out
	claimed, took       chan struct{}
	claimOnce, tookOnce sync.Once
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
func (g *pieceGate) take(byCaller bool) {
	if byCaller {
		g.claimOnce.Do(func() { close(g.claimed) })
		<-g.took
		return
	}
	<-g.claimed
	g.tookOnce.Do(func() { close(g.took) })
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
	wf := Workflow{Name: "wf-test", Tenant: "tenant-a"}
	mk := func(name string, k *kernel.Kernel) *Shim {
		s, err := NewShim(ShimConfig{Name: name, Workflow: wf, Kernel: k, Module: guest.Module(), DataHoseBytes: hose})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	s1, s2 := mk("s1", kernel.New("edge")), mk("s2", kernel.New("cloud"))
	fa, err := s1.AddFunction("a")
	if err != nil {
		t.Fatal(err)
	}
	fb, err := s2.AddFunction("b")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.proc.InjectFault(nil)

	spy := &spyOps{}
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
		ref, rep, err := runPipeline(&spec, spy)
		s2.proc.InjectFault(nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Usage.UserCopyBytes != int64(tc.n) {
			t.Fatalf("%d bytes: %d copied bytes charged", tc.n, rep.Usage.UserCopyBytes)
		}
		if (spy.byCaller > 0) != tc.wantCaller || spy.byCaller >= tc.n {
			t.Fatalf("%d bytes: the caller deposited %d", tc.n, spy.byCaller)
		}
		res, err := fb.Call(guest.ExportConsume, uint64(ref.Ptr), uint64(ref.Len))
		if err != nil {
			t.Fatal(err)
		}
		if want := ReferenceSum(tc.n); res[0] != want {
			t.Fatalf("%d bytes: checksum %#x, want %#x", tc.n, res[0], want)
		}
		if err := fb.Deallocate(ref.Ptr); err != nil {
			t.Fatal(err)
		}
	}
}
