package core_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/core"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
)

// stripedHose is four pieces, so a network drain of a few hose chunks
// publishes many pieces to its second depositor.
const stripedHose = 4 * core.DepositPiece

// stripedPair is one cross-node function pair over a stripedHose-sized hose.
type stripedPair struct {
	k1, k2 *kernel.Kernel
	s1, s2 *core.Shim
	fa, fb *core.Function
	// payload is a copy of the source's output, what every delivery must
	// land byte for byte.
	payload []byte
}

func newStripedPair(t *testing.T) *stripedPair {
	t.Helper()
	p := &stripedPair{k1: kernel.New("edge"), k2: kernel.New("cloud")}
	mk := func(name string, k *kernel.Kernel) *core.Shim {
		s, err := core.NewShim(core.ShimConfig{
			Name: name, Workflow: wf, Kernel: k, Module: guest.Module(),
			DataHoseBytes: stripedHose,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	p.s1, p.s2 = mk("s1", p.k1), mk("s2", p.k2)
	p.fa, p.fb = addFn(t, p.s1, "a"), addFn(t, p.s2, "b")
	return p
}

// produce replaces the source's output with a fresh n-byte payload and
// keeps a copy of it.
func (p *stripedPair) produce(t *testing.T, n int) {
	t.Helper()
	if _, err := p.fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	out, err := p.fa.Locate()
	if err != nil {
		t.Fatal(err)
	}
	src, err := p.fa.View().Instance().Memory().View(out.Ptr, out.Len)
	if err != nil {
		t.Fatal(err)
	}
	p.payload = append(p.payload[:0], src...)
}

// deliver runs one transfer that must succeed, checks the payload inside the
// target byte for byte against the source's (a comparison rather than the
// guest's checksum: these tests move many megabytes under -race, where the
// interpreter is slow) and the copy/syscall trace of Algorithm 1 — one
// user-space copy of every byte whichever goroutine deposited it, two
// syscalls per chunk and side when warm — and hands the region back.
func (p *stripedPair) deliver(t *testing.T, n int, warm bool) {
	t.Helper()
	before := p.s2.Account().Snapshot()
	ref, rep, err := core.NetworkTransfer(p.fa, p.fb, core.NetworkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.fb.View().Instance().Memory().View(ref.Ptr, ref.Len)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p.payload) {
		t.Fatalf("%d bytes: the target holds other bytes than the source", n)
	}
	u := rep.Usage
	if u.UserCopyBytes != int64(n) || u.KernelCopyBytes != 0 {
		t.Fatalf("%d bytes: copies = %d user / %d kernel, want %d / 0", n, u.UserCopyBytes, u.KernelCopyBytes, n)
	}
	chunks := int64((n + stripedHose - 1) / stripedHose)
	if warm && (u.Syscalls != 4*chunks || u.ContextSwitches != 8*chunks) {
		t.Fatalf("%d bytes: %d syscalls / %d context switches, want %d / %d", n, u.Syscalls, u.ContextSwitches, 4*chunks, 8*chunks)
	}
	// Both depositors charge the target shim: its account, not the
	// source's, carries every copied byte.
	if got := p.s2.Account().Snapshot().Sub(before).UserCopyBytes; got != int64(n) {
		t.Fatalf("%d bytes: target account charged %d copied bytes", n, got)
	}
	if err := p.fb.Deallocate(ref.Ptr); err != nil {
		t.Fatal(err)
	}
}

// heapTop reports where the target's bump heap stands.
func heapTop(t *testing.T, f *core.Function) uint32 {
	t.Helper()
	ptr, err := f.View().Allocate(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Deallocate(ptr); err != nil {
		t.Fatal(err)
	}
	return ptr
}

// TestStripedDrainDeliversAtChunkEdges pins byte-exact delivery and the
// unchanged accounting of the two-depositor drain at payloads straddling its
// two units: one byte short of, exactly, and one byte past a piece — the
// largest payload that publishes nothing and the smallest that does — and a
// hose chunk, and one byte past three chunks.
func TestStripedDrainDeliversAtChunkEdges(t *testing.T) {
	const piece = core.DepositPiece
	p := newStripedPair(t)
	p.produce(t, stripedHose)
	p.deliver(t, stripedHose, false) // cold: establishes the channel
	for _, n := range []int{piece - 1, piece, piece + 1, stripedHose - 1, stripedHose, stripedHose + 1, 3*stripedHose + 1} {
		p.produce(t, n)
		top := heapTop(t, p.fb)
		for i := 0; i < 3; i++ {
			p.deliver(t, n, true)
		}
		if got := heapTop(t, p.fb); got != top {
			t.Fatalf("%d bytes: target heap at %#x, want %#x", n, got, top)
		}
	}
}

// TestStripedDrainFailuresConserve aborts a four-chunk striped drain at
// its first, a middle and its last chunk — a faulted splice or read on the
// target, a faulted vmsplice on the source, a cancellation observed mid-drain
// — and, with both depositors busy, while the caller holds a claimed piece
// and the slot holds the rest of its chunk. It asserts what every transfer
// failure must leave behind: the cause reported, descriptors and pool pages
// at their channel-free baseline, the target's bump heap rewound (nothing
// deposited after the abort), and a following transfer byte-exact. Gifted
// extents carry no gauge; a reference released twice panics.
func TestStripedDrainFailuresConserve(t *testing.T) {
	const n = 4 * stripedHose
	type arm func(p *stripedPair, cancel context.CancelFunc) (cause error, gates *core.PipelineGates)
	faultOn := func(src bool, op string, after int64) arm {
		return func(p *stripedPair, _ context.CancelFunc) (error, *core.PipelineGates) {
			proc := p.s2.Proc()
			if src {
				proc = p.s1.Proc()
			}
			proc.InjectFault(kernel.NewFaultPlan(kernel.FaultSpec{Ops: []string{op}, After: after, Count: 1, Err: errInjected}).Hook())
			return errInjected, nil
		}
	}
	cancelOn := func(after int64) arm {
		return func(p *stripedPair, cancel context.CancelFunc) (error, *core.PipelineGates) {
			// The hook lets the after-th read through and cancels: the
			// drain meets the cancellation at its next chunk boundary.
			plan := kernel.NewFaultPlan(kernel.FaultSpec{Ops: []string{"readrefs"}, After: after, Count: 1})
			hook := plan.Hook()
			p.s2.Proc().InjectFault(func(op string) error {
				if hook(op) != nil {
					cancel()
				}
				return nil
			})
			return context.Canceled, nil
		}
	}
	// whileClaimed holds the caller on its first claimed piece until the
	// after-th op on the target has faulted (or, with cancel, cancelled and
	// gone through), and holds that op until the caller has claimed: the
	// abort lands while the caller holds a piece and the rest of its chunk
	// waits in the slot.
	whileClaimed := func(op string, after int64, cancelIt bool) arm {
		return func(p *stripedPair, cancel context.CancelFunc) (error, *core.PipelineGates) {
			claimed, landed := make(chan struct{}), make(chan struct{})
			var first sync.Once
			gates := core.ClaimGates(func(byCaller bool) {
				if byCaller {
					first.Do(func() {
						close(claimed)
						<-landed
					})
				}
			})
			hook := kernel.NewFaultPlan(kernel.FaultSpec{Ops: []string{op}, After: after, Count: 1}).Hook()
			p.s2.Proc().InjectFault(func(o string) error {
				if hook(o) == nil {
					return nil
				}
				<-claimed
				defer close(landed)
				if cancelIt {
					cancel()
					return nil
				}
				return errInjected
			})
			if cancelIt {
				return context.Canceled, gates
			}
			return errInjected, gates
		}
	}
	cases := []struct {
		name string
		arm  arm
	}{
		{"splice first chunk", faultOn(false, "splice", 0)},
		{"splice middle chunk", faultOn(false, "splice", 2)},
		{"splice last chunk", faultOn(false, "splice", 3)},
		{"read first chunk", faultOn(false, "readrefs", 0)},
		{"read middle chunk", faultOn(false, "readrefs", 2)},
		{"read last chunk", faultOn(false, "readrefs", 3)},
		{"source vmsplice middle chunk", faultOn(true, "vmsplice", 2)},
		{"cancel after first chunk", cancelOn(0)},
		{"cancel mid-drain", cancelOn(1)},
		{"cancel before last chunk", cancelOn(2)},
		{"splice while the caller holds a piece", whileClaimed("splice", 1, false)},
		{"read last chunk while the caller holds a piece", whileClaimed("readrefs", 3, false)},
		{"cancel while the caller holds a piece", whileClaimed("readrefs", 1, true)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newStripedPair(t)
			p.produce(t, n)
			fds := [2]int{p.s1.Proc().NumFDs(), p.s2.Proc().NumFDs()}
			p.deliver(t, n, false) // warm: grows the target's memory, caches the channel
			top := heapTop(t, p.fb)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cause, gates := tc.arm(p, cancel)
			_, _, err := core.NetworkTransfer(p.fa, p.fb, core.NetworkOptions{Ctx: ctx, Gates: gates})
			p.s1.Proc().InjectFault(nil)
			p.s2.Proc().InjectFault(nil)
			if !errors.Is(err, cause) {
				t.Fatalf("error = %v, want %v", err, cause)
			}
			if got := [2]int{p.s1.Proc().NumFDs(), p.s2.Proc().NumFDs()}; got != fds {
				t.Fatalf("FDs = %v, want the channel-free baseline %v", got, fds)
			}
			if res := p.k1.Pool().Resident() + p.k2.Pool().Resident(); res != 0 {
				t.Fatalf("%d pool bytes resident", res)
			}
			if got := heapTop(t, p.fb); got != top {
				t.Fatalf("target heap at %#x, want %#x: aborted ingress not rewound", got, top)
			}
			p.deliver(t, n, false) // re-establishes the channel
			p.deliver(t, n, true)
			if got := heapTop(t, p.fb); got != top {
				t.Fatalf("target heap at %#x after recovery, want %#x", got, top)
			}
		})
	}
}
