package core

import (
	"runtime"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
)

// spyOps is the network stage pair with a view of the ingress stage's state:
// while the drain runs it exposes the pipelineState (so the test can see the
// deposit slot), and afterwards the bytes the caller's goroutine copied.
type spyOps struct {
	st       *pipelineState
	byCaller int
}

func (o *spyOps) egress(st *pipelineState) (OutputRef, error) { return networkOps{}.egress(st) }

func (o *spyOps) ingress(st *pipelineState, out OutputRef) (InboundRef, error) {
	o.st = st
	ref, err := networkOps{}.ingress(st, out)
	o.st = nil
	// The drain has joined: the caller's count is settled.
	o.byCaller = st.callerDeposited
	return ref, err
}

// TestStripedDrainUsesBothDepositors proves the caller's goroutine is the
// hose's second depositor: on a multi-chunk payload both goroutines copy
// bytes into the target — the caller some, the ingress stage at least the
// last chunk — and together exactly the payload, and a one-chunk payload
// deals nothing. The target's syscall hook holds the drain at each
// chunk boundary until the job it dealt is claimed, so the split does not
// depend on scheduling or the core count.
func TestStripedDrainUsesBothDepositors(t *testing.T) {
	const hose = 64 << 10
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

	spy := &spyOps{}
	s2.proc.InjectFault(func(string) error {
		for spy.st != nil && len(spy.st.depositCh) > 0 {
			runtime.Gosched()
		}
		return nil
	})
	defer s2.proc.InjectFault(nil)

	for _, tc := range []struct {
		n          int
		wantCaller bool
	}{
		{hose, false},
		{4 * hose, true},
		{hose + 1, true},
		{16 * hose, true},
	} {
		if _, err := fa.CallPacked(guest.ExportProduce, uint64(tc.n)); err != nil {
			t.Fatal(err)
		}
		spec := pipelineSpec{mode: "network", kind: chanNetwork, src: fa, dst: fb, chunkBytes: hose}
		ref, rep, err := runPipeline(&spec, spy)
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
		if want := guest.ReferenceChecksum(guest.ReferenceProduce(tc.n)); res[0] != want {
			t.Fatalf("%d bytes: checksum %#x, want %#x", tc.n, res[0], want)
		}
		if err := fb.Deallocate(ref.Ptr); err != nil {
			t.Fatal(err)
		}
	}
}
