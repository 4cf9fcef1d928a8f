// Plan: the context-first Plan/Submit plane (DESIGN.md §7). Declares a DAG
// — a routed invoke feeding two parallel cross-node transfers via From
// dataflow edges, then a fan-out — submits it under a deadline, streams
// per-node progress, and then shows a cancelled submission conserving the
// data plane (a second, identical submission still runs cleanly).
package main

import (
	"context"
	"errors"
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
	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"))
	defer p.Close()

	wf := roadrunner.Workflow{Name: "plan-demo", Tenant: "demo"}
	deploy := func(name, node string) *roadrunner.Function {
		f, err := p.Deploy(roadrunner.FunctionSpec{Name: name, Node: node, Workflow: wf})
		if err != nil {
			log.Fatal(err)
		}
		return f
	}
	ingest := deploy("ingest", "edge")
	prep := deploy("prep", "edge")
	modelA := deploy("model-a", "cloud")
	modelB := deploy("model-b", "cloud")
	sinks := []*roadrunner.Function{deploy("sink-1", "cloud"), deploy("sink-2", "cloud")}

	const payload = 1 << 20

	// The DAG: ingest produces and delivers to prep (kernel space, routed),
	// prep's delivery feeds both models in parallel (network), and model-a
	// fans a fresh result out to the sinks once both models are done.
	plan := roadrunner.NewPlan()
	produce := plan.Invoke(ingest, prep, payload).Named("produce")
	toA := plan.Xfer(prep, modelA).Named("to-model-a").From(produce)
	toB := plan.Xfer(prep, modelB).Named("to-model-b").From(produce)
	deliver := plan.Fan(modelA, sinks, payload/4).Named("deliver").After(toA, toB)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	job, err := p.Submit(ctx, plan)
	if err != nil {
		return err
	}

	// Per-node progress, in completion order.
	for _, node := range []*roadrunner.PlanNode{produce, toA, toB, deliver} {
		<-job.NodeDone(node)
		nr, _ := job.NodeResult(node)
		done, total := job.Progress()
		if nr.Err != nil {
			return fmt.Errorf("node %s: %w", node.Label(), nr.Err)
		}
		fmt.Printf("%-12s done (%d/%d)  mode=%-9s latency=%v\n",
			node.Label(), done, total, nr.Report().Mode, nr.Report().Latency())
	}
	res, err := job.Wait(ctx)
	if err != nil {
		return err
	}
	sum, err := modelB.Checksum(res.Node(toB).Ref())
	if err != nil {
		return err
	}
	fmt.Printf("aggregate: %d bytes moved, payload intact at model-b: %v\n\n",
		res.Report.Bytes, sum == roadrunner.ExpectedChecksum(payload))

	// Cancellation that reaches the pipeline: an already-expired context
	// aborts cleanly, and the identical chain still runs afterwards — the
	// cancelled attempt leaked nothing.
	expired, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	line := []*roadrunner.Function{ingest, prep, modelA}
	if _, _, err := p.ChainCtx(expired, payload, line); !errors.Is(err, context.Canceled) {
		return fmt.Errorf("cancelled chain returned %v, want context.Canceled", err)
	}
	fmt.Println("cancelled chain: context.Canceled, baselines conserved")
	if _, _, err := p.ChainCtx(context.Background(), payload, line); err != nil {
		return err
	}
	fmt.Println("same chain after cancellation: delivered")
	return nil
}
