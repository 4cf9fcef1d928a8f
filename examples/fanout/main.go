// Fanout: the one-to-many pattern of §6.4 — one source function
// broadcasting a payload to eight co-located replicas, run two ways: once
// through FanoutCtx's shared-egress tee group (the source's pages are
// vmspliced once and tee(2)-duplicated into every target's channel, zero
// source-side payload copies) and once as N independent unicasts — the
// source produces once and every replica receives its own TransferCtx
// pinned to that output with WithSourceRef, paying a full transfer per
// target as fan-out did before the tee group. The two arms' reports print
// side by side: identical verified deliveries, O(1) vs O(N)
// kernel-boundary copy volume.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

const (
	payload = 1 << 20 // 1 MiB per broadcast
	degree  = 8       // replicas receiving it
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// regime is one measured broadcast: the wall clock plus the per-target
// reports it produced.
type regime struct {
	label   string
	wall    time.Duration
	reports []roadrunner.Report
}

func run() error {
	p := roadrunner.New(roadrunner.WithNodes("node"))
	defer p.Close()

	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "node"})
	if err != nil {
		return err
	}
	targets := make([]*roadrunner.Function, degree)
	for i := range targets {
		if targets[i], err = p.Deploy(roadrunner.FunctionSpec{
			Name: fmt.Sprintf("replica-%d", i), Node: "node",
		}); err != nil {
			return err
		}
	}

	shared, err := broadcast(src, targets, "shared egress (tee group)",
		func(ctx context.Context) ([]roadrunner.DataRef, []roadrunner.Report, error) {
			return p.FanoutCtx(ctx, src, targets, payload)
		})
	if err != nil {
		return err
	}
	perTarget, err := broadcast(src, targets, "per-target unicasts",
		func(ctx context.Context) ([]roadrunner.DataRef, []roadrunner.Report, error) {
			return unicasts(ctx, p, src, targets)
		})
	if err != nil {
		return err
	}

	fmt.Printf("one source -> %d same-node replicas, %d MiB payload\n\n", degree, payload>>20)
	fmt.Printf("%-28s %-26s %-26s\n", "", shared.label, perTarget.label)
	fmt.Printf("%-28s %-26s %-26s\n", "mode", shared.reports[0].Mode, perTarget.reports[0].Mode)
	fmt.Printf("%-28s %-26v %-26v\n", "wall clock", shared.wall.Round(time.Microsecond), perTarget.wall.Round(time.Microsecond))
	fmt.Printf("%-28s %-26d %-26d\n", "kernel-boundary copy bytes",
		kernelCopies(shared.reports), kernelCopies(perTarget.reports))
	fmt.Printf("%-28s %-26d %-26d\n", "syscalls", syscalls(shared.reports), syscalls(perTarget.reports))
	fmt.Printf("%-28s %-26v %-26v\n", "mean delivery latency",
		meanLatency(shared.reports), meanLatency(perTarget.reports))

	fmt.Printf("\nper-replica deliveries (latency / kernel-copy bytes):\n")
	for i := range targets {
		fmt.Printf("  %-10s %-10v %8d      %-10v %8d\n", targets[i].Name(),
			shared.reports[i].Latency().Round(time.Microsecond), shared.reports[i].Usage.KernelCopyBytes,
			perTarget.reports[i].Latency().Round(time.Microsecond), perTarget.reports[i].Usage.KernelCopyBytes)
	}

	fmt.Printf("\nthe tee group shares one pinned source read: 0 source-side payload copies\n")
	fmt.Printf("vs %d bytes for %d independent transfers (%dx the payload).\n",
		kernelCopies(perTarget.reports), degree, kernelCopies(perTarget.reports)/payload)
	return nil
}

// fanOut is one arm's way of delivering the payload to every target: one
// delivery ref and one report per target, in target order.
type fanOut func(ctx context.Context) ([]roadrunner.DataRef, []roadrunner.Report, error)

// unicasts is the per-target arm: src produces the payload once and every
// target receives its own kernel-space transfer of that output.
func unicasts(ctx context.Context, p *roadrunner.Platform, src *roadrunner.Function, targets []*roadrunner.Function) ([]roadrunner.DataRef, []roadrunner.Report, error) {
	if err := src.Produce(payload); err != nil {
		return nil, nil, err
	}
	out, err := src.Instance(0).Output()
	if err != nil {
		return nil, nil, err
	}
	refs := make([]roadrunner.DataRef, len(targets))
	reports := make([]roadrunner.Report, len(targets))
	for i, t := range targets {
		if refs[i], reports[i], err = p.TransferCtx(ctx, src, t, roadrunner.WithSourceRef(out)); err != nil {
			return nil, nil, err
		}
	}
	return refs, reports, nil
}

// broadcast runs one arm twice, verifying every replica's delivery against
// the expected checksum and releasing the delivered regions so the next
// run starts from the same baseline. The first run is an untimed warm-up
// that establishes the per-pair channels, so the measured run is the warm
// path.
func broadcast(src *roadrunner.Function, targets []*roadrunner.Function, label string, fan fanOut) (regime, error) {
	if r, err := timedBroadcast(src, targets, label, fan); err != nil {
		return r, err
	}
	return timedBroadcast(src, targets, label, fan)
}

// timedBroadcast is one verified, released, wall-clocked fan-out.
func timedBroadcast(src *roadrunner.Function, targets []*roadrunner.Function, label string, fan fanOut) (regime, error) {
	start := time.Now()
	refs, reports, err := fan(context.Background())
	wall := time.Since(start)
	if err != nil {
		return regime{}, fmt.Errorf("%s: %w", label, err)
	}
	want := roadrunner.ExpectedChecksum(payload)
	for i, ref := range refs {
		sum, err := ref.Instance().Checksum(ref)
		if err != nil {
			return regime{}, fmt.Errorf("%s: checksum %s: %w", label, targets[i].Name(), err)
		}
		if sum != want {
			return regime{}, fmt.Errorf("%s: %s received a corrupt payload", label, targets[i].Name())
		}
		if err := ref.Instance().Release(ref); err != nil {
			return regime{}, fmt.Errorf("%s: release %s: %w", label, targets[i].Name(), err)
		}
	}
	si := src.Instance(0)
	if out, err := si.Output(); err == nil {
		if err := si.Release(out); err != nil {
			return regime{}, fmt.Errorf("%s: release source output: %w", label, err)
		}
	}
	return regime{label: label, wall: wall, reports: reports}, nil
}

// kernelCopies sums payload bytes moved across the kernel boundary over
// all target reports — the fan-out's copy-volume scaling.
func kernelCopies(reports []roadrunner.Report) int64 {
	var total int64
	for _, r := range reports {
		total += r.Usage.KernelCopyBytes
	}
	return total
}

// syscalls sums the syscall counts over all target reports.
func syscalls(reports []roadrunner.Report) int64 {
	var total int64
	for _, r := range reports {
		total += r.Usage.Syscalls
	}
	return total
}

// meanLatency averages the per-delivery critical-path latency.
func meanLatency(reports []roadrunner.Report) time.Duration {
	var total time.Duration
	for _, r := range reports {
		total += r.Latency()
	}
	return (total / time.Duration(len(reports))).Round(time.Microsecond)
}
