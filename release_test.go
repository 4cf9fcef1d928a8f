// Release tests: deallocate_memory frees exactly the block it is given
// (Table 1), so releases may come in any order without touching another
// live region — the pages a network transfer has gifted to the kernel
// included — and releasing anything that is not a live block is an error
// that changes nothing.
package roadrunner_test

import (
	"errors"
	"testing"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// produceAt makes a fresh n-byte payload on inst and returns its region.
func produceAt(t *testing.T, inst *roadrunner.Instance, n int) roadrunner.DataRef {
	t.Helper()
	if err := inst.Produce(n); err != nil {
		t.Fatal(err)
	}
	ref, err := inst.Output()
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// TestReleaseDuringGiftKeepsPayload releases an older region A and produces
// C on the source while B, allocated after A, is on the wire as gifted
// pages. Releasing A must free A alone: C must land clear of B, and B must
// arrive intact. An allocator that rewinds to A's address on release puts
// C over B's gifted pages and B arrives with C's bytes.
func TestReleaseDuringGiftKeepsPayload(t *testing.T) {
	p := newPlatform(t)
	src := deploy(t, p, roadrunner.FunctionSpec{Name: "src", Node: "edge"})
	dst := deploy(t, p, roadrunner.FunctionSpec{Name: "dst", Node: "cloud"})
	si := src.Instance(0)
	const nA, nB, nC = 4 << 10, 64 << 10, 8 << 10
	refA, refB := produceAt(t, si, nA), produceAt(t, si, nB)

	// The gate runs on the ingress goroutine, so it reports with t.Error.
	var refC roadrunner.DataRef
	gate := func() {
		if err := si.Release(refA); err != nil {
			t.Errorf("release A: %v", err)
			return
		}
		if err := si.Produce(nC); err != nil {
			t.Errorf("produce C: %v", err)
			return
		}
		var err error
		if refC, err = si.Output(); err != nil {
			t.Errorf("C's region: %v", err)
		}
	}
	ref, rep, err := p.TransferCtx(bg, src, dst, roadrunner.WithSourceRef(refB), roadrunner.TestingWithGates(gate))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "network" {
		t.Fatalf("mode = %q, want network", rep.Mode)
	}
	if refC.Ptr < refB.Ptr+refB.Len && refB.Ptr < refC.Ptr+refC.Len {
		t.Errorf("C [%d,+%d) landed over B [%d,+%d)", refC.Ptr, refC.Len, refB.Ptr, refB.Len)
	}
	if sum, err := checksumAtOwner(ref); err != nil || sum != roadrunner.ExpectedChecksum(nB) {
		t.Errorf("B delivered with checksum %#x (%v), want %#x", sum, err, roadrunner.ExpectedChecksum(nB))
	}
	for _, r := range []roadrunner.DataRef{refB, refC, ref} {
		if err := r.Instance().Release(r); err != nil {
			t.Error(err)
		}
	}
}

// TestInvalidReleaseIsAnError hands Instance.Release and Function.Release
// refs that name no live block: each fails with ErrForeignInstance, the heap
// stays where it was (the next produce lands where the probe says), and the
// live region stays intact.
func TestInvalidReleaseIsAnError(t *testing.T) {
	p := newPlatform(t)
	f := deploy(t, p, roadrunner.FunctionSpec{Name: "f", Node: "edge"})
	inst := f.Instance(0)
	live := produceAt(t, inst, 4096)
	released := produceAt(t, inst, 64)
	if err := inst.Release(released); err != nil {
		t.Fatal(err)
	}
	probe := instanceProbe(t, inst)
	at := func(ptr uint32) roadrunner.DataRef { // live's owner, another address
		r := live
		r.Ptr = ptr
		return r
	}

	for _, tc := range []struct {
		name string
		ref  roadrunner.DataRef
	}{
		{"double release", released},
		{"inside a block", at(live.Ptr + 8)},
		{"at the heap", at(probe)},
		{"above the heap", at(probe + 4096)},
		{"below the heap base", at(16)},
		{"owner-less, arbitrary Ptr", roadrunner.DataRef{Ptr: 12345, Len: 8}},
	} {
		for verb, release := range map[string]func(roadrunner.DataRef) error{
			"Instance.Release": inst.Release,
			"Function.Release": f.Release,
		} {
			if err := release(tc.ref); !errors.Is(err, roadrunner.ErrForeignInstance) {
				t.Errorf("%s, %s: err = %v, want ErrForeignInstance", tc.name, verb, err)
			}
			if got := instanceProbe(t, inst); got != probe {
				t.Errorf("%s, %s: next produce lands at %d, want %d", tc.name, verb, got, probe)
			}
		}
	}
	if sum, err := inst.Checksum(live); err != nil || sum != roadrunner.ExpectedChecksum(4096) {
		t.Fatalf("live region after the rejected releases: checksum %#x (%v)", sum, err)
	}
	if err := f.Release(live); err != nil {
		t.Fatal(err)
	}
}
