// Fanout: the one-to-many pattern of §6.4 — one source function
// broadcasting a payload to eight co-located replicas, run twice: once
// through the shared-egress tee group (the source's pages are vmspliced
// once and tee(2)-duplicated into every target's channel, zero source-side
// payload copies) and once with WithPerTargetFanout, the pre-extension
// ablation that pays a full independent transfer per target. The two
// regimes' reports print side by side: identical verified deliveries,
// O(1) vs O(N) kernel-boundary copy volume.
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

	shared, err := broadcast(p, src, targets, "shared egress (tee group)")
	if err != nil {
		return err
	}
	perTarget, err := broadcast(p, src, targets, "per-target (ablation)",
		roadrunner.WithPerTargetFanout(true))
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

// broadcast runs one fan-out, verifies every replica's delivery against
// the expected checksum, and releases the delivered regions so the next
// regime starts from the same baseline.
func broadcast(p *roadrunner.Platform, src *roadrunner.Function, targets []*roadrunner.Function, label string, opts ...roadrunner.TransferOption) (regime, error) {
	// Untimed warm-up: establish the per-pair channels so the measured
	// broadcast is the warm path, as in the fanoutshare experiment.
	if r, err := timedBroadcast(p, src, targets, label, opts); err != nil {
		return r, err
	}
	return timedBroadcast(p, src, targets, label, opts)
}

// timedBroadcast is one verified, released, wall-clocked fan-out.
func timedBroadcast(p *roadrunner.Platform, src *roadrunner.Function, targets []*roadrunner.Function, label string, opts []roadrunner.TransferOption) (regime, error) {
	start := time.Now()
	refs, reports, err := p.FanoutCtx(context.Background(), src, targets, payload, opts...)
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
