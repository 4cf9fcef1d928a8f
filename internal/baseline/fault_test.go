package baseline

import (
	"errors"
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
)

// TestTransferFaultsConserveFDs drives both baseline transfers into a
// failed send and a failed receive, and once without a fault, and requires
// both sandboxes' descriptor tables back at their pre-call size: every
// return past the connect closes both socket ends (DESIGN §9.1).
func TestTransferFaultsConserveFDs(t *testing.T) {
	errInjected := errors.New("injected")
	failOn := func(op string) func(string) error {
		return func(got string) error {
			if got == op {
				return errInjected
			}
			return nil
		}
	}
	env := TransferEnv{Link: netsim.DefaultLoopback(), Flows: 1}
	const n = 64 << 10

	build := map[string]func(t *testing.T) (src, dst *kernel.Proc, transfer func() error){
		"runc": func(t *testing.T) (*kernel.Proc, *kernel.Proc, func() error) {
			k := kernel.New("n")
			a := NewRunCFunction("a", k, ContainerImageBytes, nil)
			b := NewRunCFunction("b", k, ContainerImageBytes, nil)
			t.Cleanup(a.Close)
			t.Cleanup(b.Close)
			a.Produce(n)
			return a.proc, b.proc, func() error { _, _, err := a.Transfer(b, env); return err }
		},
		"wasmedge": func(t *testing.T) (*kernel.Proc, *kernel.Proc, func() error) {
			k := kernel.New("n")
			a, err := NewWasmEdgeFunction("a", k, guest.Module(), nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewWasmEdgeFunction("b", k, guest.Module(), nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(a.Close)
			t.Cleanup(b.Close)
			if err := a.Produce(n); err != nil {
				t.Fatal(err)
			}
			return a.proc, b.proc, func() error { _, _, _, err := a.Transfer(b, env); return err }
		},
	}
	conserved := func(t *testing.T, src, dst *kernel.Proc, srcFDs, dstFDs int) {
		t.Helper()
		if got := src.NumFDs(); got != srcFDs {
			t.Errorf("source descriptors: %d after the transfer, want %d", got, srcFDs)
		}
		if got := dst.NumFDs(); got != dstFDs {
			t.Errorf("target descriptors: %d after the transfer, want %d", got, dstFDs)
		}
	}
	for name, mk := range build {
		t.Run(name+"/ok", func(t *testing.T) {
			src, dst, transfer := mk(t)
			srcFDs, dstFDs := src.NumFDs(), dst.NumFDs()
			if err := transfer(); err != nil {
				t.Fatal(err)
			}
			conserved(t, src, dst, srcFDs, dstFDs)
		})
		for _, op := range []string{"write", "read"} {
			t.Run(name+"/"+op, func(t *testing.T) {
				src, dst, transfer := mk(t)
				srcFDs, dstFDs := src.NumFDs(), dst.NumFDs()
				faulted := src
				if op == "read" {
					faulted = dst
				}
				faulted.InjectFault(failOn(op))
				if err := transfer(); err == nil {
					t.Fatalf("transfer with a failing %s succeeded", op)
				}
				faulted.InjectFault(nil)
				conserved(t, src, dst, srcFDs, dstFDs)
			})
		}
	}
}
