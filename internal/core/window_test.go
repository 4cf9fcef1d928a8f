package core_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/core"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/pagebuf"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
)

// cappedGuest is the guest module with its linear memory limited to pages
// 64 KiB pages, so a test can make allocate_memory fail: the memory
// section's maximum (65536, a 3-byte LEB128) is patched in place with a
// same-width encoding of the smaller bound.
func cappedGuest(t *testing.T, pages int) []byte {
	t.Helper()
	section := []byte{0x05, 0x06, 0x01, 0x01, 0x02, 0x80, 0x80, 0x04} // memory: 1 entry, min 2, max 65536
	patched := append([]byte(nil), section...)
	patched[5], patched[6], patched[7] = byte(pages)|0x80, byte(pages>>7)|0x80, byte(pages>>14)
	mod := guest.Module()
	if bytes.Count(mod, section) != 1 {
		t.Fatal("guest module's memory section not found exactly once")
	}
	return bytes.Replace(mod, section, patched, 1)
}

// TestWindowedKernelFailuresReportCauseAndConserve drives a kernel transfer
// larger than the send window — so its egress is parked inside Write when
// the ingress fails — through every way the target stage can fail and one
// way the source can, pipelined and phase-locked. Each must return promptly
// with the cause (never the ring-closed error the unblocked egress sees),
// leave descriptors, pool pages, residency, the target's bump heap and the
// channel cache at baseline, and leave the pair able to re-establish and
// deliver a checksum-clean payload.
func TestWindowedKernelFailuresReportCauseAndConserve(t *testing.T) {
	const n = 1 << 20
	type env struct {
		k      *kernel.Kernel
		s1, s2 *core.Shim
		fa, fb *core.Function
		cancel context.CancelFunc
		// blocker is the region the allocate case holds in the target.
		blocker uint32
	}
	cases := []struct {
		name string
		// arm installs the failure and returns whether err is its cause.
		arm func(e *env, opts *core.KernelOptions) func(err error) bool
	}{
		{"read fault", func(e *env, _ *core.KernelOptions) func(error) bool {
			e.s2.Proc().InjectFault(func(op string) error {
				if op == "read" {
					return errInjected
				}
				return nil
			})
			return func(err error) bool { return errors.Is(err, errInjected) }
		}},
		{"target allocate failure", func(e *env, _ *core.KernelOptions) func(error) bool {
			// The target's memory is capped at 1.5 MiB and 1 MiB of it is
			// held: the transfer's allocate_memory(1 MiB) traps.
			var err error
			if e.blocker, err = e.fb.View().Allocate(n); err != nil {
				t.Fatal(err)
			}
			return func(err error) bool { return errors.Is(err, wasm.TrapUnreachable) }
		}},
		{"cancel at BeforeIngress", func(e *env, opts *core.KernelOptions) func(error) bool {
			opts.Gates = &core.PipelineGates{BeforeIngress: e.cancel}
			return func(err error) bool { return errors.Is(err, context.Canceled) }
		}},
		{"cancel mid-drain", func(e *env, _ *core.KernelOptions) func(error) bool {
			// The hook fires as the ingress enters its one receive, past
			// the stage-boundary poll.
			e.s2.Proc().InjectFault(func(op string) error {
				if op == "read" {
					e.cancel()
				}
				return nil
			})
			return func(err error) bool { return errors.Is(err, context.Canceled) }
		}},
		{"source killed mid-Write", func(e *env, opts *core.KernelOptions) func(error) bool {
			opts.Gates = &core.PipelineGates{BeforeIngress: func() {
				// Hold the ingress until the source has filled the window
				// and is parked in Write, then reset the channel under it.
				for e.k.Pool().Resident() < core.KernelSendWindow {
					time.Sleep(50 * time.Microsecond)
				}
				e.s1.PoisonChannels()
			}}
			// Both stages meet the reset; whichever fails first reports it.
			return func(err error) bool {
				return errors.Is(err, pagebuf.ErrClosedRing) || errors.Is(err, kernel.ErrBadFD)
			}
		}},
	}
	deliver := func(e *env, opts core.KernelOptions) {
		t.Helper()
		ref, rep, err := core.KernelSpaceTransfer(e.fa, e.fb, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Usage.KernelCopyBytes != 2*n || rep.Usage.Syscalls > 3 {
			t.Fatalf("delivery charged %d kernel copy bytes, %d syscalls", rep.Usage.KernelCopyBytes, rep.Usage.Syscalls)
		}
		verifyDelivery(t, e.fb, ref, n)
		if err := e.fb.Deallocate(ref.Ptr); err != nil {
			t.Fatal(err)
		}
	}

	for _, phaseLocked := range []bool{false, true} {
		for _, tc := range cases {
			name := tc.name
			if phaseLocked {
				name += "/phase-locked"
			}
			t.Run(name, func(t *testing.T) {
				k := kernel.New("node")
				s1 := newShim(t, "s1", k)
				s2, err := core.NewShim(core.ShimConfig{Name: "s2", Workflow: wf, Kernel: k, Module: cappedGuest(t, 24)})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s2.Close)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				e := &env{k: k, s1: s1, s2: s2, fa: addFn(t, s1, "a"), fb: addFn(t, s2, "b"), cancel: cancel}
				if _, err := e.fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
					t.Fatal(err)
				}
				fds := [2]int{s1.Proc().NumFDs(), s2.Proc().NumFDs()}
				opts := core.KernelOptions{Ctx: ctx, PhaseLocked: phaseLocked}
				deliver(e, opts) // warm: grows the target's memory, caches the channel

				heap := heapTop(t, e.fb)
				failing := opts
				isCause := tc.arm(e, &failing)
				resident := [2]int64{s1.Account().Snapshot().ResidentBytes, s2.Account().Snapshot().ResidentBytes}
				done := make(chan error, 1)
				go func() {
					_, _, err := core.KernelSpaceTransfer(e.fa, e.fb, failing)
					done <- err
				}()
				select {
				case err = <-done:
				case <-time.After(20 * time.Second):
					t.Fatal("failing transfer did not return")
				}
				s2.Proc().InjectFault(nil)
				if !isCause(err) {
					t.Fatalf("error = %v, not the cause", err)
				}

				if got := [2]int{s1.Proc().NumFDs(), s2.Proc().NumFDs()}; got != fds {
					t.Fatalf("FDs = %v, want the channel-free baseline %v", got, fds)
				}
				if res := k.Pool().Resident(); res != 0 {
					t.Fatalf("%d pool bytes resident", res)
				}
				if got := [2]int64{s1.Account().Snapshot().ResidentBytes, s2.Account().Snapshot().ResidentBytes}; got != resident {
					t.Fatalf("residency = %v, want %v", got, resident)
				}
				if e.blocker == 0 {
					if got := heapTop(t, e.fb); got != heap {
						t.Fatalf("target heap at %#x, want %#x: aborted ingress not rewound", got, heap)
					}
				}
				if st := s1.ChannelStats(); st.Active != 0 {
					t.Fatalf("channel cache holds %d channels after the failure", st.Active)
				}

				// Recovery: drop the allocate case's blocker (which also
				// rewinds the guest's bump pointer past the allocation that
				// trapped), then the pair re-establishes and delivers.
				if e.blocker != 0 {
					if err := e.fb.Deallocate(e.blocker); err != nil {
						t.Fatal(err)
					}
				}
				heapBefore := heapTop(t, e.fb)
				misses := s1.ChannelStats().Misses
				recovery := core.KernelOptions{PhaseLocked: phaseLocked}
				deliver(e, recovery)
				if got := s1.ChannelStats().Misses; got != misses+1 {
					t.Fatalf("recovery transfer: %d channel misses, want a re-establishment", got-misses)
				}
				if got := heapTop(t, e.fb); got != heapBefore {
					t.Fatalf("target heap at %#x after recovery, want %#x", got, heapBefore)
				}
			})
		}
	}
}

// The kernel path's bounce memory does not grow with the payload: from one
// slab to 16 MiB the node's page pool never holds more than the send window
// plus the one slab the receive is copying out, and nothing afterwards.
func TestKernelTransferResidencyBoundedByWindow(t *testing.T) {
	for _, n := range []int{64 << 10, 1 << 20, 16 << 20} {
		k := kernel.New("node")
		s1, s2 := newShim(t, "s1", k), newShim(t, "s2", k)
		fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")
		if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			ref, _, err := core.KernelSpaceTransfer(fa, fb, core.KernelOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				verifyDelivery(t, fb, ref, n)
			}
			if err := fb.Deallocate(ref.Ptr); err != nil {
				t.Fatal(err)
			}
		}
		if peak, bound := k.Pool().PeakResident(), int64(core.KernelSendWindow+pagebuf.SlabSize); peak > bound {
			t.Errorf("%d-byte transfers: pool peak %d, want <= window + one slab (%d)", n, peak, bound)
		}
		if res := k.Pool().Resident(); res != 0 {
			t.Errorf("%d-byte transfers: %d pool bytes resident afterwards", n, res)
		}
	}
}
