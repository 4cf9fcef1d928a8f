package roadrunner_test

import (
	"testing"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// TestChannelCachePublicAPI drives the cache through the Platform surface:
// cold transfers report Setup and count as misses, warm ones hit with zero
// Setup.
func TestChannelCachePublicAPI(t *testing.T) {
	p := roadrunner.New()
	defer p.Close()
	a, err := p.Deploy(roadrunner.FunctionSpec{Name: "a", Node: "edge"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Deploy(roadrunner.FunctionSpec{Name: "b", Node: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64 << 10
	if err := a.Produce(n); err != nil {
		t.Fatal(err)
	}

	// Cold: the pair's channel is established — Setup > 0, one miss.
	ref, rep, err := p.TransferCtx(bg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breakdown.Setup <= 0 {
		t.Fatalf("cold transfer Setup = %v, want > 0", rep.Breakdown.Setup)
	}
	if err := b.Release(ref); err != nil {
		t.Fatal(err)
	}
	if st := p.ChannelStats(); st.Misses != 1 || st.Hits != 0 || st.Active != 1 {
		t.Fatalf("after cold transfer: %+v", st)
	}

	// Warm: reuse — Setup exactly 0, one hit, checksum still exact.
	ref, rep, err = p.TransferCtx(bg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breakdown.Setup != 0 {
		t.Fatalf("warm transfer Setup = %v, want 0", rep.Breakdown.Setup)
	}
	sum, err := checksumAtOwner(ref)
	if err != nil {
		t.Fatal(err)
	}
	if want := roadrunner.ExpectedChecksum(n); sum != want {
		t.Fatalf("checksum = %#x, want %#x", sum, want)
	}
	if err := b.Release(ref); err != nil {
		t.Fatal(err)
	}
	if st := p.ChannelStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after warm transfer: %+v", st)
	}
}
