//go:build !(linux || darwin) || race

package wasm_test

import (
	"testing"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
)

// TestInstantiateMappedKeepsHeap: in race builds, and off Linux and macOS,
// InstantiateMapped keeps linear memory on the Go heap — where the race
// detector sees every access — and reserves nothing.
func TestInstantiateMappedKeepsHeap(t *testing.T) {
	inst, err := wasm.InstantiateMapped(growModule(t), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if inst.Memory().Mapped() || wasm.LiveMappings() != 0 {
		t.Fatalf("mapped %v, live mappings %d, want the heap backing", inst.Memory().Mapped(), wasm.LiveMappings())
	}
}
