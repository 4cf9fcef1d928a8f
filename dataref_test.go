// DataRef ownership tests: a delivered region is an address in one
// instance's linear memory, so every ref the platform returns names its
// instance and the data verbs route by it. Releasing or digesting a ref
// must touch only its owner — never whichever replica of the function
// happens to be active — and handing a ref to an instance that does not
// own it fails with ErrForeignInstance instead of corrupting that
// instance's heap.
package roadrunner_test

import (
	"errors"
	"testing"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
)

// ownerRig is a on edge feeding a two-replica b on cloud, plus an
// unrelated function c.
type ownerRig struct {
	p       *roadrunner.Platform
	a, b, c *roadrunner.Function
	r0, r1  *roadrunner.Instance
}

func newOwnerRig(t *testing.T) ownerRig {
	t.Helper()
	p := newPlatform(t)
	rig := ownerRig{
		p: p,
		a: deploy(t, p, roadrunner.FunctionSpec{Name: "a", Node: "edge"}),
		b: deploy(t, p, roadrunner.FunctionSpec{Name: "b", Node: "cloud", Replicas: 2}),
		c: deploy(t, p, roadrunner.FunctionSpec{Name: "c", Node: "cloud"}),
	}
	rig.r0, rig.r1 = rig.b.Instance(0), rig.b.Instance(1)
	return rig
}

// deliverTo0 transfers a fresh n-byte payload from a into replica 0 of b.
func (rig ownerRig) deliverTo0(t *testing.T, n int) roadrunner.DataRef {
	t.Helper()
	if err := rig.a.Produce(n); err != nil {
		t.Fatal(err)
	}
	ref, _, err := rig.p.TransferCtx(bg, rig.a, rig.b, roadrunner.WithTargetInstance(rig.r0))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Instance() != rig.r0 {
		t.Fatalf("delivery owned by %v, want %s", ref.Instance(), rig.r0.Name())
	}
	return ref
}

// makeActive1 gives replica 1 a live n-byte region, which also makes it
// b's active instance, and returns the region.
func (rig ownerRig) makeActive1(t *testing.T, n int) roadrunner.DataRef {
	t.Helper()
	if err := rig.r1.Produce(n); err != nil {
		t.Fatal(err)
	}
	if rig.b.ActiveInstance() != rig.r1 {
		t.Fatal("replica 1 not active after its produce")
	}
	live, err := rig.r1.Output()
	if err != nil {
		t.Fatal(err)
	}
	return live
}

// TestReleaseRoutesToRefOwner: Function.Release of a ref delivered to
// replica 0 rewinds replica 0's heap even while replica 1 is active, and
// leaves replica 1's live region alone. Routed by the active instance, the
// release would leak 4 KiB in replica 0 and free replica 1's live data.
func TestReleaseRoutesToRefOwner(t *testing.T) {
	rig := newOwnerRig(t)
	base0 := instanceProbe(t, rig.r0)
	instanceProbe(t, rig.r1)

	ref0 := rig.deliverTo0(t, 4096)
	live := rig.makeActive1(t, 8192)
	if err := rig.b.Release(ref0); err != nil {
		t.Fatal(err)
	}
	if got := instanceProbe(t, rig.r0); got != base0 {
		t.Errorf("replica 0 alloc probe = %d, want pre-transfer base %d (release missed the owner)", got, base0)
	}
	if got, end := instanceProbe(t, rig.r1), live.Ptr+live.Len; got < end {
		t.Errorf("replica 1 alloc probe = %d, inside its live region ending at %d (release hit the active replica)", got, end)
	}
}

// TestChecksumRoutesToRefOwner: digesting ref0 through its owner while
// replica 1 is active reads replica 0's copy and disturbs neither heap.
func TestChecksumRoutesToRefOwner(t *testing.T) {
	rig := newOwnerRig(t)
	base0 := instanceProbe(t, rig.r0)
	instanceProbe(t, rig.r1)

	ref0 := rig.deliverTo0(t, 4096)
	live := rig.makeActive1(t, 8192)
	sum, err := ref0.Instance().Checksum(ref0)
	if err != nil {
		t.Fatal(err)
	}
	if want := roadrunner.ExpectedChecksum(4096); sum != want {
		t.Fatalf("checksum = %#x, want %#x", sum, want)
	}
	if got, end := instanceProbe(t, rig.r0), ref0.Ptr+ref0.Len; got < end {
		t.Errorf("replica 0 alloc probe = %d, inside the live delivery ending at %d", got, end)
	}
	if got, end := instanceProbe(t, rig.r1), live.Ptr+live.Len; got < end {
		t.Errorf("replica 1 alloc probe = %d, inside its live region ending at %d", got, end)
	}
	if err := ref0.Instance().Release(ref0); err != nil {
		t.Fatal(err)
	}
	if got := instanceProbe(t, rig.r0); got != base0 {
		t.Errorf("replica 0 alloc probe = %d after release, want %d", got, base0)
	}
}

// TestForeignRefRejected: every verb handed a ref owned by replica 0 of b
// that does not belong to that instance fails with ErrForeignInstance and
// leaves the region live and intact at its owner; owner-less literals keep
// reaching the bounds checks they always did.
func TestForeignRefRejected(t *testing.T) {
	rig := newOwnerRig(t)
	ref0 := rig.deliverTo0(t, 4096) // 64×64 bytes, so ResizeHalf's size check passes
	base1 := instanceProbe(t, rig.r1)

	for name, call := range map[string]func() error{
		"replica 1 Checksum":  func() error { _, err := rig.r1.Checksum(ref0); return err },
		"replica 1 Release":   func() error { return rig.r1.Release(ref0) },
		"replica 1 SetOutput": func() error { return rig.r1.SetOutput(ref0) },
		"replica 1 ResizeHalf": func() error {
			_, err := rig.r1.ResizeHalf(ref0, 64, 64)
			return err
		},
		"another function's Release": func() error { return rig.c.Release(ref0) },
		"Function.Release of an owner-less ref": func() error {
			return rig.b.Release(roadrunner.DataRef{Ptr: ref0.Ptr, Len: ref0.Len})
		},
		"WithSourceRef outside src's pool": func() error {
			_, _, err := rig.p.TransferCtx(bg, rig.a, rig.c, roadrunner.WithSourceRef(ref0))
			return err
		},
		"WithSourceRef against a conflicting WithSourceInstance": func() error {
			_, _, err := rig.p.TransferCtx(bg, rig.b, rig.c,
				roadrunner.WithSourceInstance(rig.r1), roadrunner.WithSourceRef(ref0))
			return err
		},
		"Cast WithSourceRef outside src's pool": func() error {
			_, _, err := rig.p.MulticastCtx(bg, rig.a, []*roadrunner.Function{rig.c}, roadrunner.WithSourceRef(ref0))
			return err
		},
	} {
		if err := call(); !errors.Is(err, roadrunner.ErrForeignInstance) {
			t.Errorf("%s: err = %v, want ErrForeignInstance", name, err)
		}
	}

	// Nothing above touched either replica.
	if got := instanceProbe(t, rig.r1); got != base1 {
		t.Errorf("replica 1 alloc probe = %d, want %d", got, base1)
	}
	sum, err := rig.r0.Checksum(ref0)
	if err != nil || sum != roadrunner.ExpectedChecksum(4096) {
		t.Fatalf("ref0 after the rejected calls: checksum %#x (%v)", sum, err)
	}

	// A transfer reading ref0 from its owner needs no instance pin.
	out, _, err := rig.p.TransferCtx(bg, rig.b, rig.c, roadrunner.WithSourceRef(ref0))
	if err != nil {
		t.Fatal(err)
	}
	if sum, err := checksumAtOwner(out); err != nil || sum != roadrunner.ExpectedChecksum(4096) {
		t.Fatalf("forwarded ref0: checksum %#x (%v)", sum, err)
	}

	// Owner-less literals address the instance they are handed to.
	far := roadrunner.DataRef{Ptr: 1 << 31, Len: 4096}
	if _, _, err := rig.p.TransferCtx(bg, rig.b, rig.c, roadrunner.WithSourceRef(far)); !errors.Is(err, wasm.TrapOutOfBounds) {
		t.Errorf("owner-less source ref: err = %v, want the out-of-bounds view", err)
	}
	if _, err := rig.r1.Checksum(far); err == nil || errors.Is(err, roadrunner.ErrForeignInstance) {
		t.Errorf("owner-less Checksum: err = %v, want a bounds failure", err)
	}
}
