package core_test

import (
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

// TestWarmTransfersIssueZeroSetupSyscalls is the channel cache's central
// claim, proven with the simulated kernel's exact syscall accounting: a
// warm (cache-hit) transfer issues zero connect/pipe/socketpair syscalls —
// only the per-payload data plane — while checksums and copy accounting
// stay exactly what the paper's Algorithm 1 prescribes.
func TestWarmTransfersIssueZeroSetupSyscalls(t *testing.T) {
	t.Run("kernel", func(t *testing.T) {
		k := kernel.New("node")
		s1, s2 := newShim(t, "s1", k), newShim(t, "s2", k)
		fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")
		const n = 64 << 10
		if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
			t.Fatal(err)
		}

		run := func() (srcSys, dstSys int64, rep struct {
			setup time.Duration
			kcopy int64
		}) {
			sb, db := s1.Account().Snapshot(), s2.Account().Snapshot()
			ref, r, err := core.KernelSpaceTransfer(fa, fb, core.KernelOptions{})
			if err != nil {
				t.Fatal(err)
			}
			verifyDelivery(t, fb, ref, n)
			rep.setup = r.Breakdown.Setup
			rep.kcopy = r.Usage.KernelCopyBytes
			return s1.Account().Snapshot().Sub(sb).Syscalls, s2.Account().Snapshot().Sub(db).Syscalls, rep
		}

		// Cold: socketpair(1, charged to src) + write(1) on the source,
		// read(1) on the target.
		srcSys, dstSys, cold := run()
		if srcSys != 2 || dstSys != 1 {
			t.Fatalf("cold syscalls = %d/%d, want 2/1", srcSys, dstSys)
		}
		if cold.setup <= 0 {
			t.Fatal("cold transfer reported no Setup time")
		}
		// Warm: write(1) + read(1) — the payload's two kernel crossings and
		// nothing else. Zero socketpair syscalls, identical copy accounting.
		srcSys, dstSys, warm := run()
		if srcSys != 1 || dstSys != 1 {
			t.Fatalf("warm syscalls = %d/%d, want 1/1", srcSys, dstSys)
		}
		if warm.setup != 0 {
			t.Fatalf("warm transfer reported Setup = %v, want 0", warm.setup)
		}
		if cold.kcopy != 2*n || warm.kcopy != 2*n {
			t.Fatalf("kernel copies cold/warm = %d/%d, want %d", cold.kcopy, warm.kcopy, 2*n)
		}
	})

	t.Run("network", func(t *testing.T) {
		k1, k2 := kernel.New("edge"), kernel.New("cloud")
		s1, err := core.NewShim(core.ShimConfig{
			Name: "s1", Workflow: wf, Kernel: k1, Module: guest.Module(), DataHoseBytes: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s1.Close()
		s2, err := core.NewShim(core.ShimConfig{
			Name: "s2", Workflow: wf, Kernel: k2, Module: guest.Module(), DataHoseBytes: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")
		const n = 2 << 20 // 2 hose-sized chunks
		if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
			t.Fatal(err)
		}

		run := func() (srcSys, dstSys int64, setup time.Duration, userCopies int64) {
			sb, db := s1.Account().Snapshot(), s2.Account().Snapshot()
			ref, r, err := core.NetworkTransfer(fa, fb, core.NetworkOptions{})
			if err != nil {
				t.Fatal(err)
			}
			verifyDelivery(t, fb, ref, n)
			return s1.Account().Snapshot().Sub(sb).Syscalls,
				s2.Account().Snapshot().Sub(db).Syscalls,
				r.Breakdown.Setup, r.Usage.UserCopyBytes
		}

		srcSys, dstSys, setup, copies := run()
		if srcSys != 5 || dstSys != 5 { // connect+(vmsplice+splice)*2 / connect+(splice+readrefs)*2
			t.Fatalf("cold syscalls = %d/%d, want 5/5", srcSys, dstSys)
		}
		if setup <= 0 {
			t.Fatal("cold transfer reported no Setup time")
		}
		if copies != n {
			t.Fatalf("cold user copies = %d, want %d", copies, n)
		}
		srcSys, dstSys, setup, copies = run()
		if srcSys != 4 || dstSys != 4 { // the per-chunk data plane only
			t.Fatalf("warm syscalls = %d/%d, want 4/4", srcSys, dstSys)
		}
		if setup != 0 {
			t.Fatalf("warm Setup = %v, want 0", setup)
		}
		if copies != n {
			t.Fatalf("warm user copies = %d, want %d", copies, n)
		}
	})
}

// TestConcurrentWarmTransfersRaceClean drives many overlapping warm
// transfers across disjoint shim pairs (the -race proof for the cache's
// locking discipline) and pins, per pair, the exact aggregate syscall count
// so no hidden control-plane work sneaks into the warm path.
func TestConcurrentWarmTransfersRaceClean(t *testing.T) {
	const pairs, iters, n = 8, 10, 256 << 10
	k1, k2 := kernel.New("edge"), kernel.New("cloud")
	srcs := make([]*core.Function, pairs)
	dsts := make([]*core.Function, pairs)
	srcShims := make([]*core.Shim, pairs)
	dstShims := make([]*core.Shim, pairs)
	for i := 0; i < pairs; i++ {
		srcShims[i] = newShim(t, fmt.Sprintf("src-%d", i), k1)
		dstShims[i] = newShim(t, fmt.Sprintf("dst-%d", i), k2)
		srcs[i] = addFn(t, srcShims[i], "a")
		dsts[i] = addFn(t, dstShims[i], "b")
		if _, err := srcs[i].CallPacked(guest.ExportProduce, uint64(n)); err != nil {
			t.Fatal(err)
		}
		// Prime the pair's channel so every measured transfer is warm.
		if _, _, err := core.NetworkTransfer(srcs[i], dsts[i], core.NetworkOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	before := make([]int64, pairs)
	for i := range before {
		before[i] = srcShims[i].Account().Snapshot().Syscalls + dstShims[i].Account().Snapshot().Syscalls
	}
	var wg sync.WaitGroup
	for i := 0; i < pairs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				ref, rep, err := core.NetworkTransfer(srcs[i], dsts[i], core.NetworkOptions{})
				if err != nil {
					t.Errorf("pair %d: %v", i, err)
					return
				}
				if rep.Breakdown.Setup != 0 {
					t.Errorf("pair %d: warm transfer paid Setup %v", i, rep.Breakdown.Setup)
				}
				verifyDelivery(t, dsts[i], ref, n)
			}
		}(i)
	}
	wg.Wait()

	// Each warm transfer: 1 vmsplice + 1 splice (source) + 1 splice +
	// 1 readrefs (target) for the single sub-hose chunk = 4 syscalls.
	for i := 0; i < pairs; i++ {
		delta := srcShims[i].Account().Snapshot().Syscalls + dstShims[i].Account().Snapshot().Syscalls - before[i]
		if delta != 4*iters {
			t.Fatalf("pair %d: %d syscalls across %d warm transfers, want %d", i, delta, iters, 4*iters)
		}
	}
}

// TestChannelIdleAndLRUEviction exercises both eviction triggers with an
// injected clock: idle channels die on the next acquisition, and the
// registry never grows past the channel cap.
func TestChannelIdleAndLRUEviction(t *testing.T) {
	// The pipelined engine reads the clock from both stage goroutines, so
	// the injected clock must be safe for concurrent use.
	var clockMu sync.Mutex
	clock := time.Unix(0, 0)
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		clock = clock.Add(time.Microsecond)
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}
	k1 := kernel.New("edge")
	mk := func(name string, k *kernel.Kernel, cap int) *core.Shim {
		s := newShim(t, name, k)
		core.SetChannelLimits(s, now, time.Second, cap)
		return s
	}
	src := mk("src", k1, 1)
	fa := addFn(t, src, "a")
	kb, kc := kernel.New("cloud-b"), kernel.New("cloud-c")
	sb, sc := mk("sb", kb, 4), mk("sc", kc, 4)
	fb, fc := addFn(t, sb, "b"), addFn(t, sc, "c")
	const n = 4 << 10
	if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}

	// LRU: the cap is 1, so the a→c channel evicts a→b.
	if _, _, err := core.NetworkTransfer(fa, fb, core.NetworkOptions{}); err != nil {
		t.Fatal(err)
	}
	fbFDs := sb.Proc().NumFDs()
	if _, _, err := core.NetworkTransfer(fa, fc, core.NetworkOptions{}); err != nil {
		t.Fatal(err)
	}
	st := src.ChannelStats()
	if st.Active != 1 || st.Evictions != 1 || st.Misses != 2 {
		t.Fatalf("after LRU eviction: %+v", st)
	}
	if got := sb.Proc().NumFDs(); got != fbFDs-1 {
		t.Fatalf("evicted target still holds FDs: %d, want %d", got, fbFDs-1)
	}

	// Idle: advance past the idle bound; the next acquisition (for b) evicts
	// the stale a→c channel and the re-established a→b channel misses.
	advance(2 * time.Second)
	if _, _, err := core.NetworkTransfer(fa, fb, core.NetworkOptions{}); err != nil {
		t.Fatal(err)
	}
	st = src.ChannelStats()
	if st.Active != 1 || st.Evictions != 2 || st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("after idle eviction: %+v", st)
	}

	// Warm reuse within the idle window is a hit.
	if _, _, err := core.NetworkTransfer(fa, fb, core.NetworkOptions{}); err != nil {
		t.Fatal(err)
	}
	if st = src.ChannelStats(); st.Hits != 1 {
		t.Fatalf("warm reuse not counted as hit: %+v", st)
	}

	// Same-pair staleness: acquiring the pair whose own channel went idle
	// evicts and re-establishes it — the idle bound holds even
	// when no other pair ever triggers a scan.
	advance(2 * time.Second)
	if _, _, err := core.NetworkTransfer(fa, fb, core.NetworkOptions{}); err != nil {
		t.Fatal(err)
	}
	st = src.ChannelStats()
	if st.Evictions != 3 || st.Misses != 4 || st.Hits != 1 {
		t.Fatalf("after same-pair idle eviction: %+v", st)
	}
}

// TestMulticastWiderThanChannelCap: a fan-out to more targets than the
// source shim's channel cap must not evict its own in-flight channels while
// acquiring the later ones (regression: the LRU victim used to be the
// multicast's own shared hose, failing the transfer with EBADF). The
// registry may briefly exceed the cap while pinned; the next acquisition
// trims it back.
func TestMulticastWiderThanChannelCap(t *testing.T) {
	const degree, n = 4, 64 << 10
	kSrc := kernel.New("edge")
	src := newShim(t, "src", kSrc)
	core.SetChannelLimits(src, nil, 0, 2) // far smaller than the fan-out degree
	fa := addFn(t, src, "a")
	dsts := make([]*core.Function, degree)
	for i := range dsts {
		sd := newShim(t, fmt.Sprintf("t%d", i), kernel.New(fmt.Sprintf("cloud-%d", i)))
		dsts[i] = addFn(t, sd, fmt.Sprintf("f%d", i))
	}
	if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		refs, _, err := core.MulticastTransfer(fa, dsts, core.MulticastOptions{})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, dst := range dsts {
			verifyDelivery(t, dst, refs[i], n)
		}
	}
}

// TestShimCloseTearsDownChannelsBothDirections: closing either endpoint of
// a cached channel releases the descriptors held in the *other* shim's
// sandbox too — nothing dangles after teardown.
func TestShimCloseTearsDownChannelsBothDirections(t *testing.T) {
	k1, k2 := kernel.New("edge"), kernel.New("cloud")
	s1, s2 := newShim(t, "s1", k1), newShim(t, "s2", k2)
	fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")
	if _, err := fa.CallPacked(guest.ExportProduce, 64<<10); err != nil {
		t.Fatal(err)
	}
	dstBase := s2.Proc().NumFDs()
	if _, _, err := core.NetworkTransfer(fa, fb, core.NetworkOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := s2.Proc().NumFDs(); got != dstBase+1 {
		t.Fatalf("cached channel holds %d target FDs, want 1", got-dstBase)
	}
	// Closing the SOURCE shim must close the descriptors the channel pinned
	// in the target's FD table.
	s1.Close()
	if got := s2.Proc().NumFDs(); got != dstBase {
		t.Fatalf("after source close, target holds %d extra FDs", got-dstBase)
	}
	if res := k1.Pool().Resident() + k2.Pool().Resident(); res != 0 {
		t.Fatalf("leaked %d resident bytes", res)
	}
}

// errInjected is the sentinel the fault hook fails syscalls with.
var errInjected = errors.New("injected fault")

// faultEnv is one freshly deployed transfer scenario for error injection.
type faultEnv struct {
	kernels []*kernel.Kernel
	shims   []*core.Shim
	run     func() error
}

func (e *faultEnv) procs() []*kernel.Proc {
	ps := make([]*kernel.Proc, len(e.shims))
	for i, s := range e.shims {
		ps[i] = s.Proc()
	}
	return ps
}

// TestTransferErrorPathsConserveFDsAndPages drives every transfer mode
// through each of its data-plane failure points (via the kernel's fault
// hook) and asserts that no file descriptors and no resident pool pages
// survive the failure: error returns destroy the (possibly poisoned)
// channel instead of leaking its descriptors or stranded payload pages.
func TestTransferErrorPathsConserveFDsAndPages(t *testing.T) {
	const n = 600 << 10 // two hose chunks for the 512 KiB hose below

	build := func(t *testing.T, mode string) *faultEnv {
		mkShim := func(name string, k *kernel.Kernel) *core.Shim {
			s, err := core.NewShim(core.ShimConfig{
				Name: name, Workflow: wf, Kernel: k, Module: guest.Module(),
				DataHoseBytes: 512 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			return s
		}
		switch mode {
		case "kernel":
			k := kernel.New("node")
			s1, s2 := mkShim("s1", k), mkShim("s2", k)
			fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")
			if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
				t.Fatal(err)
			}
			return &faultEnv{kernels: []*kernel.Kernel{k}, shims: []*core.Shim{s1, s2}, run: func() error {
				_, _, err := core.KernelSpaceTransfer(fa, fb, core.KernelOptions{})
				return err
			}}
		case "network", "network-uncached":
			k1, k2 := kernel.New("edge"), kernel.New("cloud")
			s1, s2 := mkShim("s1", k1), mkShim("s2", k2)
			fa, fb := addFn(t, s1, "a"), addFn(t, s2, "b")
			if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
				t.Fatal(err)
			}
			opts := core.NetworkOptions{}
			if mode == "network-uncached" {
				opts.Gates = core.UncachedGates()
			}
			return &faultEnv{kernels: []*kernel.Kernel{k1, k2}, shims: []*core.Shim{s1, s2}, run: func() error {
				_, _, err := core.NetworkTransfer(fa, fb, opts)
				return err
			}}
		case "multicast":
			k1 := kernel.New("edge")
			s1 := mkShim("src", k1)
			fa := addFn(t, s1, "a")
			kernels := []*kernel.Kernel{k1}
			shims := []*core.Shim{s1}
			var targets []*core.Function
			for i := 0; i < 2; i++ {
				kd := kernel.New(fmt.Sprintf("cloud-%d", i))
				sd := mkShim(fmt.Sprintf("t%d", i), kd)
				kernels = append(kernels, kd)
				shims = append(shims, sd)
				targets = append(targets, addFn(t, sd, fmt.Sprintf("f%d", i)))
			}
			if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
				t.Fatal(err)
			}
			return &faultEnv{kernels: kernels, shims: shims, run: func() error {
				_, _, err := core.MulticastTransfer(fa, targets, core.MulticastOptions{})
				return err
			}}
		case "multicast-same-node", "multicast-mixed":
			// Same-node: every target shares the source's kernel, so every
			// leg is a socketpair. Mixed: one co-located and one remote
			// target, teed from the one source hose.
			k1 := kernel.New("edge")
			s1 := mkShim("src", k1)
			fa := addFn(t, s1, "a")
			kernels := []*kernel.Kernel{k1}
			shims := []*core.Shim{s1}
			for i := 0; i < 2; i++ {
				kd := k1
				if mode == "multicast-mixed" && i == 1 {
					kd = kernel.New("cloud")
					kernels = append(kernels, kd)
				}
				shims = append(shims, mkShim(fmt.Sprintf("t%d", i), kd))
			}
			targets := []*core.Function{addFn(t, shims[1], "f0"), addFn(t, shims[2], "f1")}
			if _, err := fa.CallPacked(guest.ExportProduce, uint64(n)); err != nil {
				t.Fatal(err)
			}
			return &faultEnv{kernels: kernels, shims: shims, run: func() error {
				_, _, err := core.MulticastTransfer(fa, targets, core.MulticastOptions{})
				return err
			}}
		default:
			t.Fatalf("unknown mode %s", mode)
			return nil
		}
	}

	for _, mode := range []string{"kernel", "network", "network-uncached", "multicast", "multicast-same-node", "multicast-mixed"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			// Pass 1: count the data-plane ops of a successful transfer.
			// The pipelined stages run concurrently, so the counter is
			// atomic.
			env := build(t, mode)
			var total atomic.Int64
			for _, p := range env.procs() {
				p.InjectFault(func(string) error { total.Add(1); return nil })
			}
			if err := env.run(); err != nil {
				t.Fatalf("counting run: %v", err)
			}
			if total.Load() == 0 {
				t.Fatal("no data-plane ops observed")
			}

			// Pass 2: fail each op in turn on a fresh deployment; FDs and
			// pool pages must return to their pre-transfer levels. With the
			// overlapped stages the k-th op overall is not deterministic
			// across runs, but sweeping k over the op count still drives
			// every failure point on both sides.
			for k := int64(0); k < total.Load(); k++ {
				env := build(t, mode)
				procs := env.procs()
				baseline := make([]int, len(procs))
				for i, p := range procs {
					baseline[i] = p.NumFDs()
				}
				var step atomic.Int64
				for _, p := range procs {
					p.InjectFault(func(string) error {
						if step.Add(1)-1 == k {
							return errInjected
						}
						return nil
					})
				}
				err := env.run()
				for _, p := range procs {
					p.InjectFault(nil)
				}
				if !errors.Is(err, errInjected) {
					t.Fatalf("op %d: error = %v, want injected fault", k, err)
				}
				for i, p := range procs {
					if got := p.NumFDs(); got != baseline[i] {
						t.Fatalf("op %d: proc %d holds %d FDs, want %d", k, i, got, baseline[i])
					}
				}
				for _, kk := range env.kernels {
					if res := kk.Pool().Resident(); res != 0 {
						t.Fatalf("op %d: %d resident pool bytes leaked", k, res)
					}
				}
			}
		})
	}
}
