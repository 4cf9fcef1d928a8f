// Imagepipeline: the data-intensive edge–cloud scenario the paper motivates
// (§1): an ML-style image workflow — ingest → frame extraction → inference —
// whose stages exchange ephemeral image data. Ingest and extraction are
// co-located on the edge node (sharing one Wasm VM), inference runs in the
// cloud, so the workflow exercises the user-space and network transfer modes
// end to end.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

const (
	frameW = 1024
	frameH = 1024
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	p := roadrunner.New(
		roadrunner.WithNodes("edge", "cloud"),
		roadrunner.WithLink(100*roadrunner.Mbps, time.Millisecond),
	)
	defer p.Close()

	wf := roadrunner.Workflow{Name: "image-pipeline", Tenant: "traffic-cam"}

	ingest, err := p.Deploy(roadrunner.FunctionSpec{Name: "ingest", Node: "edge", Workflow: wf})
	if err != nil {
		return err
	}
	extract, err := p.Deploy(roadrunner.FunctionSpec{
		Name: "extract", Node: "edge", Workflow: wf, ShareVMWith: ingest,
	})
	if err != nil {
		return err
	}
	infer, err := p.Deploy(roadrunner.FunctionSpec{Name: "infer", Node: "cloud", Workflow: wf})
	if err != nil {
		return err
	}

	// Stage 1 — ingest captures a synthetic 1024x1024 grayscale frame.
	if err := ingest.Produce(frameW * frameH); err != nil {
		return err
	}
	fmt.Printf("ingest: captured %dx%d frame (%d KB)\n", frameW, frameH, frameW*frameH/1024)

	// Stage 2 — frame moves to the extractor through the shared VM
	// (user-space mode), which downsamples it 2x for transmission.
	frameRef, repUser, err := p.TransferCtx(ctx, ingest, extract)
	if err != nil {
		return err
	}
	small, err := extract.ResizeHalf(frameRef, frameW, frameH)
	if err != nil {
		return err
	}
	fmt.Printf("extract: via %-7s in %v, downsampled to %d KB\n",
		repUser.Mode, repUser.Latency(), small.Len/1024)

	// Stage 3 — the reduced frame crosses the 100 Mbps edge–cloud link
	// through the virtual data hose (network mode).
	if err := extract.SetOutput(small); err != nil {
		return err
	}
	cloudRef, repNet, err := p.TransferCtx(ctx, extract, infer)
	if err != nil {
		return err
	}
	fmt.Printf("infer:   via %-7s in %v (network share %.1f%%, zero kernel-boundary copies: %v)\n",
		repNet.Mode, repNet.Latency(),
		float64(repNet.Breakdown.Network)/float64(repNet.Latency())*100,
		repNet.Usage.KernelCopyBytes == 0)

	// "Inference": digest the delivered frame inside the cloud sandbox.
	score, err := infer.Checksum(cloudRef)
	if err != nil {
		return err
	}
	fmt.Printf("infer:   model digest %#x over %d bytes\n", score, cloudRef.Len)

	total := repUser.Latency() + repNet.Latency()
	fmt.Printf("\npipeline data-delivery latency: %v (serialization time: 0s — serialization-free)\n", total)
	return nil
}
