// Extensions: two §9 future-work items of the paper, implemented and
// demonstrated together — function state management (a shim-side,
// workflow-scoped store) and zero-copy multicast (tee(2) page sharing on
// the data hose).
//
// Scenario: an edge aggregator checkpoints a model state between
// invocations, then multicasts a weight update to three cloud workers in a
// single hose pass.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	p := roadrunner.New(
		roadrunner.WithNodes("edge", "cloud-1", "cloud-2", "cloud-3"),
		roadrunner.WithLink(100*roadrunner.Mbps, time.Millisecond),
	)
	defer p.Close()

	wf := roadrunner.Workflow{Name: "federated-agg", Tenant: "ml"}
	agg, err := p.Deploy(roadrunner.FunctionSpec{Name: "aggregator", Node: "edge", Workflow: wf})
	if err != nil {
		return err
	}
	workers := make([]*roadrunner.Function, 3)
	for i := range workers {
		if workers[i], err = p.Deploy(roadrunner.FunctionSpec{
			Name:     fmt.Sprintf("worker-%d", i),
			Node:     fmt.Sprintf("cloud-%d", i+1),
			Workflow: wf,
		}); err != nil {
			return err
		}
	}

	// --- State management (§9): checkpoint across invocations -------------
	const modelBytes = 2 << 20
	inst := agg.Instance(0)
	if err := inst.Produce(modelBytes); err != nil {
		return err
	}
	if err := inst.SaveState("model-v1"); err != nil {
		return err
	}
	fmt.Printf("state:     checkpointed %d KB as %q (workflow-scoped)\n", modelBytes/1024, "model-v1")

	// A later invocation restores the checkpoint into fresh linear memory.
	restored, err := inst.LoadState("model-v1")
	if err != nil {
		return err
	}
	sum, err := restored.Instance().Checksum(restored)
	if err != nil {
		return err
	}
	fmt.Printf("state:     restored intact = %v, keys visible to workflow: %v\n",
		sum == roadrunner.ExpectedChecksum(modelBytes), agg.StateKeys())

	// --- Zero-copy multicast (§9): one hose pass, three targets -----------
	if err := restored.Instance().SetOutput(restored); err != nil {
		return err
	}
	refs, reports, err := p.MulticastCtx(ctx, agg, workers)
	if err != nil {
		return err
	}
	for i, ref := range refs {
		s, err := ref.Instance().Checksum(ref)
		if err != nil || s != roadrunner.ExpectedChecksum(modelBytes) {
			return fmt.Errorf("worker %d received corrupt update", i)
		}
	}
	fmt.Printf("multicast: %d workers updated via %s, per-flow latency %v, zero kernel copies = %v\n",
		len(workers), reports[0].Mode, reports[0].Latency().Round(time.Microsecond),
		reports[0].Usage.KernelCopyBytes == 0)

	// --- Comparison: the same delivery as sequential unicast fan-out ------
	_, seqReports, err := p.FanoutCtx(ctx, agg, workers, modelBytes)
	if err != nil {
		return err
	}
	var mcSys, seqSys int64
	for i := range reports {
		mcSys += reports[i].Usage.Syscalls
		seqSys += seqReports[i].Usage.Syscalls
	}
	fmt.Printf("multicast: %d total syscalls vs %d for sequential fan-out\n", mcSys, seqSys)
	return nil
}
