// Tests for platform teardown semantics: Close drains the worker pool (every
// accepted Job resolves) before tearing down shims, and every public data-plane API called
// after Close returns ErrClosed instead of racing teardown.
package roadrunner_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// TestCloseDrainsSubmittedJobs closes the platform while a burst of
// submitted transfers is in flight: every submission must either be rejected
// with ErrClosed (it arrived after Close began) or hand back a Job that
// resolves exactly once — with a completed delivery (it was drained against
// live shims) or with ErrClosed — and never hang, panic or race teardown.
// Run under -race.
func TestCloseDrainsSubmittedJobs(t *testing.T) {
	p := roadrunner.New(roadrunner.WithWorkers(4))
	const pairs = 4
	srcs := make([]*roadrunner.Function, pairs)
	dsts := make([]*roadrunner.Function, pairs)
	for i := 0; i < pairs; i++ {
		wf := roadrunner.Workflow{Name: fmt.Sprintf("wf-%d", i), Tenant: "close"}
		var err error
		if srcs[i], err = p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("s%d", i), Node: "edge", Workflow: wf}); err != nil {
			t.Fatal(err)
		}
		if dsts[i], err = p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("d%d", i), Node: "cloud", Workflow: wf}); err != nil {
			t.Fatal(err)
		}
		if err := srcs[i].Produce(8 << 10); err != nil {
			t.Fatal(err)
		}
	}

	const perPair = 12
	type submission struct {
		job  *roadrunner.Job
		node *roadrunner.PlanNode
		err  error
	}
	subs := make(chan submission, pairs*perPair)
	var launchers sync.WaitGroup
	for i := 0; i < pairs; i++ {
		i := i
		launchers.Add(1)
		go func() {
			defer launchers.Done()
			for k := 0; k < perPair; k++ {
				job, node, err := submitOne(bg, p, func(pl *roadrunner.Plan) *roadrunner.PlanNode {
					return pl.Xfer(srcs[i], dsts[i])
				})
				subs <- submission{job, node, err}
			}
		}()
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	launchers.Wait()
	close(subs)

	resolved := 0
	for sub := range subs {
		err := sub.err
		if err == nil {
			res, werr := sub.job.Wait(bg)
			if werr != nil {
				t.Fatalf("Wait on an accepted job = %v", werr)
			}
			// Resolved exactly once: the per-node hook, the aggregate and
			// the progress counter all describe the same single outcome.
			nr := awaitNode(t, sub.job, sub.node)
			if done, total := sub.job.Progress(); done != 1 || total != 1 {
				t.Fatalf("progress = %d/%d, want 1/1", done, total)
			}
			if !errors.Is(res.Err, nr.Err) || res.Node(sub.node).Ref() != nr.Ref() {
				t.Fatalf("aggregate %v / %+v disagrees with node outcome %v / %+v", res.Err, res.Node(sub.node).Ref(), nr.Err, nr.Ref())
			}
			err = nr.Err
		}
		if err != nil && !errors.Is(err, roadrunner.ErrClosed) {
			t.Fatalf("submission resolved with %v, want success or ErrClosed", err)
		}
		resolved++
	}
	if resolved != pairs*perPair {
		t.Fatalf("resolved %d submissions, want %d", resolved, pairs*perPair)
	}
	<-closed

	// Every public data-plane entry point must now answer ErrClosed.
	src, dst := srcs[0], dsts[0]
	checks := map[string]error{
		"Deploy": func() error {
			_, err := p.Deploy(roadrunner.FunctionSpec{Name: "late", Node: "edge"})
			return err
		}(),
		"Transfer": func() error { _, _, err := p.TransferCtx(bg, src, dst); return err }(),
		"Invoke":   func() error { _, err := p.InvokeCtx(bg, src, dst, 1024); return err }(),
		"Chain":    func() error { _, _, err := p.ChainCtx(bg, 1024, []*roadrunner.Function{src, dst}); return err }(),
		"Multicast": func() error {
			_, _, err := p.MulticastCtx(bg, src, []*roadrunner.Function{dst})
			return err
		}(),
		"Fanout": func() error {
			_, _, err := p.FanoutCtx(bg, src, []*roadrunner.Function{dst}, 1024)
			return err
		}(),
		"Produce":            src.Produce(1024),
		"Release":            src.Release(roadrunner.DataRef{}),
		"Call":               func() error { _, err := src.Call("produce", 8); return err }(),
		"Instance.Produce":   src.Instance(0).Produce(1024),
		"Instance.Output":    func() error { _, err := src.Instance(0).Output(); return err }(),
		"Instance.SetOutput": src.Instance(0).SetOutput(roadrunner.DataRef{}),
		"Instance.Checksum": func() error {
			_, err := src.Instance(0).Checksum(roadrunner.DataRef{})
			return err
		}(),
		"Instance.Release":   src.Instance(0).Release(roadrunner.DataRef{}),
		"Instance.SaveState": src.Instance(0).SaveState("k"),
		"Instance.LoadState": func() error { _, err := src.Instance(0).LoadState("k"); return err }(),
		"Instance.ResizeHalf": func() error {
			_, err := src.Instance(0).ResizeHalf(roadrunner.DataRef{}, 0, 0)
			return err
		}(),
		"Submit(xfer)": func() error {
			_, _, err := submitOne(bg, p, func(pl *roadrunner.Plan) *roadrunner.PlanNode { return pl.Xfer(src, dst) })
			return err
		}(),
		"Submit(hop)": func() error {
			_, _, err := submitOne(bg, p, func(pl *roadrunner.Plan) *roadrunner.PlanNode {
				return pl.Hop(1024, []*roadrunner.Function{src, dst})
			})
			return err
		}(),
		"Submit(fan)": func() error {
			_, _, err := submitOne(bg, p, func(pl *roadrunner.Plan) *roadrunner.PlanNode {
				return pl.Fan(src, []*roadrunner.Function{dst}, 1024)
			})
			return err
		}(),
	}
	for name, err := range checks {
		if !errors.Is(err, roadrunner.ErrClosed) {
			t.Errorf("%s after Close = %v, want ErrClosed", name, err)
		}
	}
}

// TestCloseWithSyncTransfersInFlight overlaps Close with direct synchronous
// transfers: each call must either complete against live shims or return
// ErrClosed — teardown never runs under an admitted operation.
func TestCloseWithSyncTransfersInFlight(t *testing.T) {
	p := roadrunner.New()
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "s", Node: "edge"})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := p.Deploy(roadrunner.FunctionSpec{Name: "d", Node: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Produce(8 << 10); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 16; k++ {
				if _, _, err := p.TransferCtx(bg, src, dst); err != nil {
					if !errors.Is(err, roadrunner.ErrClosed) {
						t.Errorf("transfer during close: %v", err)
					}
					return
				}
			}
		}()
	}
	p.Close()
	wg.Wait()
}
