// Quickstart: two Wasm functions in one Wasm VM exchanging a payload through
// Roadrunner's user-space mode (§4.1, Fig. 4a) — the fastest data path,
// compared against forcing the same exchange through kernel-space IPC.
package main

import (
	"context"
	"fmt"
	"log"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	// One edge node is enough for a co-located workflow.
	p := roadrunner.New(roadrunner.WithNodes("edge"))
	defer p.Close()

	wf := roadrunner.Workflow{Name: "quickstart", Tenant: "demo"}

	// Function a gets its own shim + Wasm VM; function b joins a's VM
	// (allowed: same workflow and tenant).
	a, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: "edge", Workflow: wf})
	if err != nil {
		return err
	}
	b, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: "edge", Workflow: wf, ShareVMWith: a})
	if err != nil {
		return err
	}
	// Function c is a separate sandbox on the same node.
	c, err := p.Deploy(roadrunner.FunctionSpec{Name: "c", Node: "edge", Workflow: wf})
	if err != nil {
		return err
	}

	const payload = 8 << 20 // 8 MiB
	if err := a.Produce(payload); err != nil {
		return err
	}

	// a → b: auto mode resolves to user space (same VM).
	ref, rep, err := p.TransferCtx(ctx, a, b)
	if err != nil {
		return err
	}
	if err := verify(b, ref, payload); err != nil {
		return err
	}
	show("a → b (same VM)", rep)

	// a → c: auto mode resolves to kernel space (same node, different
	// sandboxes).
	ref, rep2, err := p.TransferCtx(ctx, a, c)
	if err != nil {
		return err
	}
	if err := verify(c, ref, payload); err != nil {
		return err
	}
	show("a → c (same node)", rep2)

	speedup := float64(rep2.Latency()) / float64(rep.Latency())
	fmt.Printf("\nuser-space mode is %.1fx faster than kernel-space IPC for this payload\n", speedup)
	return nil
}

func verify(f *roadrunner.Function, ref roadrunner.DataRef, n int) error {
	sum, err := f.Checksum(ref)
	if err != nil {
		return err
	}
	if sum != roadrunner.ExpectedChecksum(n) {
		return fmt.Errorf("%s: payload corrupted", f.Name())
	}
	return nil
}

func show(label string, rep roadrunner.Report) {
	fmt.Printf("%-20s mode=%-7s latency=%-12v copies=%d bytes (user=%d kernel=%d) syscalls=%d\n",
		label, rep.Mode, rep.Latency(),
		rep.Usage.TotalCopyBytes(), rep.Usage.UserCopyBytes, rep.Usage.KernelCopyBytes,
		rep.Usage.Syscalls)
}
