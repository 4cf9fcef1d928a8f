package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/core"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
)

// hoseBytes is the hose of every shim here: a payload of a few of them
// crosses in as many chunks.
const hoseBytes = 64 << 10

// hoseNet is three shims on three nodes, each with one function: A holds
// two, so it can send and receive at once.
type hoseNet struct {
	kernels      []*kernel.Kernel
	sa, sb, sc   *core.Shim
	a, aIn, b, c *core.Function
	nA, nC       int // the payloads a and c produce
	procs        []*kernel.Proc
	fds          []int // each proc's descriptors before any transfer
}

func newHoseNet(t *testing.T) *hoseNet {
	t.Helper()
	n := &hoseNet{nA: 3 * hoseBytes, nC: 2*hoseBytes + hoseBytes/2}
	mk := func(name string) *core.Shim {
		k := kernel.New("node-" + name)
		n.kernels = append(n.kernels, k)
		s, err := core.NewShim(core.ShimConfig{
			Name: name, Workflow: wf, Kernel: k, Module: guest.Module(), DataHoseBytes: hoseBytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		n.procs = append(n.procs, s.Proc())
		return s
	}
	n.sa, n.sb, n.sc = mk("A"), mk("B"), mk("C")
	n.a, n.aIn = addFn(t, n.sa, "a"), addFn(t, n.sa, "a-in")
	n.b, n.c = addFn(t, n.sb, "b"), addFn(t, n.sc, "c")
	for _, p := range []struct {
		f *core.Function
		n int
	}{{n.a, n.nA}, {n.c, n.nC}} {
		if _, err := p.f.CallPacked(guest.ExportProduce, uint64(p.n)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range n.procs {
		n.fds = append(n.fds, p.NumFDs())
	}
	return n
}

// send is one network transfer that must land exactly, released afterwards.
func (n *hoseNet) send(src, dst *core.Function, size int) error {
	ref, _, err := core.NetworkTransfer(src, dst, core.NetworkOptions{})
	if err != nil {
		return fmt.Errorf("%s → %s: %w", src.Name(), dst.Name(), err)
	}
	res, err := dst.Call(guest.ExportConsume, uint64(ref.Ptr), uint64(ref.Len))
	if err != nil {
		return err
	}
	if want := core.ReferenceSum(size); res[0] != want {
		return fmt.Errorf("%s → %s: checksum %#x, want %#x", src.Name(), dst.Name(), res[0], want)
	}
	return dst.Deallocate(ref.Ptr)
}

// assertBaseline checks what every stage failure must leave behind: every
// hose empty, no pool page resident, and the descriptors the shims held
// before their first transfer — the failed pair's channel destroyed, no
// channel cached by a later transfer pruned first.
func (n *hoseNet) assertBaseline(t *testing.T) {
	t.Helper()
	for _, s := range []*core.Shim{n.sa, n.sb, n.sc} {
		s.PruneChannels()
		if q := core.HoseQueued(s); q != 0 {
			t.Fatalf("%s's hose holds %d bytes with its VM lock free", s.Name(), q)
		}
	}
	for i, p := range n.procs {
		if got := p.NumFDs(); got != n.fds[i] {
			t.Fatalf("%s holds %d descriptors, want %d", p.Name(), got, n.fds[i])
		}
	}
	for _, k := range n.kernels {
		if res := k.Pool().Resident(); res != 0 {
			t.Fatalf("%s: %d pool bytes resident", k.Name(), res)
		}
	}
}

// watchdog runs fn on its own goroutine and fails the test if it has not
// returned within a minute. A stage that leaves pages in a hose makes the
// next stage on that shim block forever on the full pipe; this names the
// case instead of running into go test's -timeout. It bounds nothing else.
func watchdog(t *testing.T, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("a transfer blocked: a hose was left holding pages")
	}
}

// TestHoseResetAfterFailedStage: one hose per shim serves every pair, so a
// stage that fails mid-chunk must leave it empty for the next pair's stage.
// A source-side splice fault strands a gifted chunk in A's hose, and the
// next transfer out of A, to another target, runs the same hose; a
// target-side read fault strands a spliced chunk in B's hose, and the next
// transfer into B, from another source, drains the same hose. The later
// delivery must land exactly.
func TestHoseResetAfterFailedStage(t *testing.T) {
	for _, tc := range []struct {
		name string
		// fault arms a fault on one side of the failing transfer and runs it.
		fault func(n *hoseNet) error
		then  func(n *hoseNet) error
	}{
		{
			name: "source splice then another target",
			fault: func(n *hoseNet) error {
				n.sa.Proc().InjectFault(kernel.NewFaultPlan(kernel.FaultSpec{Ops: []string{"splice"}, After: 1, Count: 1, Err: errInjected}).Hook())
				defer n.sa.Proc().InjectFault(nil)
				return n.send(n.a, n.b, n.nA)
			},
			then: func(n *hoseNet) error { return n.send(n.a, n.c, n.nA) },
		},
		{
			name: "target read then another source",
			fault: func(n *hoseNet) error {
				n.sb.Proc().InjectFault(kernel.NewFaultPlan(kernel.FaultSpec{Ops: []string{"readrefs"}, After: 1, Count: 1, Err: errInjected}).Hook())
				defer n.sb.Proc().InjectFault(nil)
				return n.send(n.c, n.b, n.nC)
			},
			then: func(n *hoseNet) error { return n.send(n.a, n.b, n.nA) },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newHoseNet(t)
			watchdog(t, func() error {
				if err := tc.fault(n); !errors.Is(err, errInjected) {
					return fmt.Errorf("faulted transfer: %v, want the injected fault", err)
				}
				return nil
			})
			n.assertBaseline(t)
			watchdog(t, func() error { return tc.then(n) })
			n.assertBaseline(t)
		})
	}
}

// TestHoseSharedByConcurrentPairs runs A → B, A → C and C → A at once, each
// several times: A's hose serves two egresses and an ingress, C's an egress
// and an ingress, each under its VM lock, and every delivery lands exactly.
func TestHoseSharedByConcurrentPairs(t *testing.T) {
	n := newHoseNet(t)
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for _, p := range []struct {
		src, dst *core.Function
		size     int
	}{{n.a, n.b, n.nA}, {n.a, n.c, n.nA}, {n.c, n.aIn, n.nC}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := n.send(p.src, p.dst, p.size); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	watchdog(t, func() error {
		wg.Wait()
		close(errs)
		return <-errs
	})
	n.assertBaseline(t)
}

// TestHoseCancelDuringPush cancels while the source loop runs: the hook
// cancels at the second vmsplice of a three-chunk payload and lets it
// through, so the push is mid-payload when the context ends. The source must
// stop within that chunk — no third vmsplice — and the transfer, unicast or
// multicast, must report context.Canceled, deliver nothing (every target's
// heap where it was) and leave hoses, descriptors and pool pages at their
// baseline.
func TestHoseCancelDuringPush(t *testing.T) {
	for _, multicast := range []bool{false, true} {
		t.Run(fmt.Sprintf("multicast=%v", multicast), func(t *testing.T) {
			n := newHoseNet(t)
			targets := []*core.Function{n.b}
			if multicast {
				targets = append(targets, n.c)
			}
			// A delivery first, so the targets' memories have grown and the
			// heap tops below are where an undelivered transfer leaves them.
			for _, dst := range targets {
				if err := n.send(n.a, dst, n.nA); err != nil {
					t.Fatal(err)
				}
			}
			tops := make([]uint32, len(targets))
			for i, dst := range targets {
				tops[i] = heapTop(t, dst)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var vmsplices atomic.Int64
			n.sa.Proc().InjectFault(func(op string) error {
				if op == "vmsplice" && vmsplices.Add(1) == 2 {
					cancel()
				}
				return nil
			})
			watchdog(t, func() error {
				var err error
				if multicast {
					_, _, err = core.MulticastTransfer(n.a, targets, core.MulticastOptions{Ctx: ctx})
				} else {
					_, _, err = core.NetworkTransfer(n.a, n.b, core.NetworkOptions{Ctx: ctx})
				}
				if !errors.Is(err, context.Canceled) {
					return fmt.Errorf("error = %v, want context.Canceled", err)
				}
				return nil
			})
			n.sa.Proc().InjectFault(nil)
			if got := vmsplices.Load(); got != 2 {
				t.Fatalf("the source issued %d vmsplices, want 2: it did not stop within the cancelled chunk", got)
			}
			for i, dst := range targets {
				if got := heapTop(t, dst); got != tops[i] {
					t.Fatalf("%s's heap at %#x, want %#x: the cancelled transfer delivered", dst.Name(), got, tops[i])
				}
			}
			n.assertBaseline(t)
		})
	}
}
