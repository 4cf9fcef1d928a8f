// Multinode: Roadrunner's network mode head-to-head against the HTTP
// baselines of the paper's evaluation (§6.3, inter-node): the same payload
// crosses the same 100 Mbps / 1 ms edge–cloud link via (1) the virtual data
// hose, (2) a RunC-style native container with serialization, and (3) a
// WasmEdge-style function serializing inside the sandbox.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/baseline"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
)

const payload = 16 << 20 // 16 MiB

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fmt.Printf("transferring %d MiB over a 100 Mbps / 1 ms link\n\n", payload>>20)

	// 1. Roadrunner network mode.
	p := roadrunner.New(roadrunner.WithLink(100*roadrunner.Mbps, time.Millisecond))
	defer p.Close()
	a, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: "edge"})
	if err != nil {
		return err
	}
	b, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: "cloud"})
	if err != nil {
		return err
	}
	if err := a.Produce(payload); err != nil {
		return err
	}
	ref, rep, err := p.TransferCtx(context.Background(), a, b)
	if err != nil {
		return err
	}
	if sum, err := ref.Instance().Checksum(ref); err != nil || sum != roadrunner.ExpectedChecksum(payload) {
		return fmt.Errorf("roadrunner delivery corrupt: %v", err)
	}
	row("Roadrunner (data hose)", rep.Latency(), rep.Breakdown.Serialization,
		rep.Usage.KernelCopyBytes, rep.Bytes)

	link := netsim.NewLink(100*netsim.Mbps, time.Millisecond)

	// 2. RunC-style container over HTTP.
	k1, k2 := kernel.New("edge"), kernel.New("cloud")
	rc1 := baseline.NewRunCFunction("a", k1, baseline.ContainerImageBytes, nil)
	rc2 := baseline.NewRunCFunction("b", k2, baseline.ContainerImageBytes, nil)
	defer rc1.Close()
	defer rc2.Close()
	rc1.Produce(payload)
	body, rcRep, err := rc1.Transfer(rc2, baseline.TransferEnv{Link: link, Flows: 1})
	if err != nil {
		return err
	}
	if rc2.Checksum(body) != roadrunner.ExpectedChecksum(payload) {
		return fmt.Errorf("runc delivery corrupt")
	}
	row("RunC (HTTP + codec)", rcRep.Latency(), rcRep.Breakdown.Serialization,
		rcRep.Usage.KernelCopyBytes, rcRep.Bytes)

	// 3. WasmEdge-style function over WASI + HTTP.
	k3, k4 := kernel.New("edge"), kernel.New("cloud")
	we1, err := baseline.NewWasmEdgeFunction("a", k3, guest.Module(), nil)
	if err != nil {
		return err
	}
	defer we1.Close()
	we2, err := baseline.NewWasmEdgeFunction("b", k4, guest.Module(), nil)
	if err != nil {
		return err
	}
	defer we2.Close()
	if err := we1.Produce(payload); err != nil {
		return err
	}
	ptr, n, weRep, err := we1.Transfer(we2, baseline.TransferEnv{Link: link, Flows: 1})
	if err != nil {
		return err
	}
	if sum, err := we2.Checksum(ptr, n); err != nil || sum != roadrunner.ExpectedChecksum(payload) {
		return fmt.Errorf("wasmedge delivery corrupt: %v", err)
	}
	row("WasmEdge (WASI + codec)", weRep.Latency(), weRep.Breakdown.Serialization,
		weRep.Usage.KernelCopyBytes, weRep.Bytes)

	fmt.Println("\nRoadrunner matches the container upper bound while running Wasm, and")
	fmt.Println("eliminates the serialization cost that dominates the WasmEdge path.")
	return nil
}

func row(system string, latency, ser time.Duration, kernelCopies, wireBytes int64) {
	fmt.Printf("%-26s latency=%-12v serialization=%-12v kernel-copies=%-9d wire-bytes=%d\n",
		system, latency.Round(time.Microsecond), ser.Round(time.Microsecond), kernelCopies, wireBytes)
}
