// Chaos: the failure drill from DESIGN.md §8 and the README's "Operating
// under failure" section, end to end. A 4-replica target pool serves a
// stream of routed invocations while one replica is killed mid-load: its
// first delivery faults two data-plane syscalls in, retry-with-exclusion
// completes that delivery on a survivor, the health FSM excludes the
// corpse from every later placement decision, and — after Recover — the
// probe path re-admits it.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

const (
	replicas = 4
	payload  = 256 << 10
	doomed   = 1 // replica index we kill mid-load
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	// One strike excludes a replica; probes may run almost immediately, so
	// the recovery half of the drill fits in one example run. Production
	// configs keep the defaults (3 strikes, 100 ms cooldown, 2× backoff).
	p := roadrunner.New(roadrunner.WithHealth(roadrunner.HealthConfig{
		FailureThreshold: 1,
		ProbeAfter:       time.Millisecond,
	}))
	defer p.Close()

	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Replicas: replicas, Node: "edge"})
	if err != nil {
		return err
	}
	dst, err := p.Deploy(roadrunner.FunctionSpec{Name: "dst", Replicas: replicas, Node: "edge"})
	if err != nil {
		return err
	}

	// Kill one target replica mid-load: two data-plane syscalls into its
	// next delivery, its sandbox dies — partway through the transfer.
	dst.Instance(doomed).CrashAfter(2)
	fmt.Printf("killed %s (crash after 2 data-plane syscalls)\n\n", dst.Instance(doomed).Name())

	// The load keeps flowing: the faulted delivery re-routes onto a
	// surviving replica, and no invocation fails.
	for k := 0; k < 4*replicas; k++ {
		inv, err := p.InvokeCtx(ctx, src, dst, payload)
		if err != nil {
			return fmt.Errorf("invocation %d: %w", k, err)
		}
		sum, err := inv.Target.Checksum(inv.Ref)
		if err != nil {
			return err
		}
		if sum != roadrunner.ExpectedChecksum(payload) {
			return fmt.Errorf("invocation %d: checksum mismatch at %s", k, inv.Target.Name())
		}
		if err := inv.Target.Release(inv.Ref); err != nil {
			return err
		}
	}
	fmt.Printf("%d invocations, 0 failures; pool after the kill:\n", 4*replicas)
	report(dst)

	// Heal the corpse. Recover clears the fault hook but does NOT re-admit
	// the replica — the FSM does, on its own schedule: after the probe
	// cooldown the replica turns Recovering, admits one probe invocation,
	// and a probe success returns it to the candidate pool.
	dst.Instance(doomed).Recover()
	time.Sleep(5 * time.Millisecond) // wait out ProbeAfter
	for k := 0; k < 2*replicas; k++ {
		inv, err := p.InvokeCtx(ctx, src, dst, payload)
		if err != nil {
			return fmt.Errorf("post-recovery invocation %d: %w", k, err)
		}
		if err := inv.Target.Release(inv.Ref); err != nil {
			return err
		}
	}
	fmt.Printf("\nrecovered %s; pool after the probe:\n", dst.Instance(doomed).Name())
	report(dst)

	if got := dst.Instance(doomed).Health(); got != roadrunner.HealthHealthy {
		return fmt.Errorf("recovered replica health = %v, want healthy", got)
	}
	return nil
}

// report prints the monitoring-loop view: one line per replica from the
// function report's per-instance accounts.
func report(f *roadrunner.Function) {
	for _, acct := range f.Report().Instances {
		fmt.Printf("  %-8s %-10s %3d invocations\n", acct.Instance, acct.Health, acct.Invocations)
	}
}
