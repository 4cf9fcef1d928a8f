//go:build linux && !race

package roadrunner_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
)

// vmSize reads the process's mapped address space, in bytes.
func vmSize(t *testing.T) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmSize:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb << 10
		}
	}
	t.Fatal("no VmSize in /proc/self/status")
	return 0
}

// TestCloseUnmapsLinearMemory: each instance's linear memory is a 4 GiB
// reservation outside the Go heap, and Platform.Close gives every one back to
// the kernel — after a warm multicast, and after a network transfer that was
// cancelled while its vmspliced pages, which alias the source's linear
// memory, were queued in the hose. The process must not fault on the way.
func TestCloseUnmapsLinearMemory(t *testing.T) {
	const reservation = int64(4) << 30
	baseVM, baseLive := vmSize(t), wasm.LiveMappings()

	p := roadrunner.New(roadrunner.WithNodes("edge", "cloud"))
	src, err := p.Deploy(roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]*roadrunner.Function, 8)
	for i := range targets {
		if targets[i], err = p.Deploy(roadrunner.FunctionSpec{Name: fmt.Sprintf("t%d", i), Node: "edge"}); err != nil {
			t.Fatal(err)
		}
	}
	far, err := p.Deploy(roadrunner.FunctionSpec{Name: "far", Node: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 256 << 10
	if err := src.Produce(n); err != nil {
		t.Fatal(err)
	}
	for range 2 { // cold, then warm
		refs, _, err := p.MulticastCtx(bg, src, targets)
		if err != nil {
			t.Fatal(err)
		}
		for k := range targets {
			if err := targets[k].Release(refs[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithCancel(bg)
	if _, _, err := p.TransferCtx(ctx, src, far, roadrunner.TestingWithGates(cancel)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled transfer = %v, want context.Canceled", err)
	}

	const instances = 10
	if got := wasm.LiveMappings() - baseLive; got != instances {
		t.Fatalf("%d live mappings, want one per instance (%d)", got, instances)
	}
	if grown := vmSize(t) - baseVM; grown < instances*reservation {
		t.Fatalf("address space grew %d GiB for %d instances, want their reservations", grown>>30, instances)
	}
	p.Close()
	if got := wasm.LiveMappings(); got != baseLive {
		t.Fatalf("%d live mappings after Close, want %d", got, baseLive)
	}
	if grown := vmSize(t) - baseVM; grown >= reservation {
		t.Fatalf("address space still %d GiB above baseline after Close", grown>>30)
	}
}
