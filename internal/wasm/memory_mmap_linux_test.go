//go:build !race && (amd64 || arm64)

package wasm_test

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasm"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/wasmbuild"
)

// TestReservationIsHugePageReady: on Linux a mapped linear memory starts on
// a 2 MiB boundary and its mapping carries MADV_HUGEPAGE (VmFlags "hg" in
// /proc/self/smaps), both before and after a grow splits it into a committed
// and a reserved part. It checks placement and advice only, not whether the
// kernel found a huge page.
func TestReservationIsHugePageReady(t *testing.T) {
	thp, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || strings.Contains(string(thp), "[never]") {
		t.Skipf("transparent huge pages are off (%q, %v)", strings.TrimSpace(string(thp)), err)
	}
	b := wasmbuild.New()
	b.Memory(1, 65536, "memory")
	m, err := wasm.Decode(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wasm.InstantiateMapped(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	mem := inst.Memory()
	view, err := mem.View(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := uintptr(unsafe.Pointer(&view[0]))
	if base%(2<<20) != 0 {
		t.Fatalf("reservation at %#x, want a 2 MiB boundary", base)
	}
	for _, at := range []uintptr{base, base + 1<<20} { // committed, then still reserved
		if flags := vmFlags(t, at); !strings.Contains(" "+flags+" ", " hg ") {
			t.Errorf("mapping at %#x has VmFlags %q, want hg", at, flags)
		}
	}
	if mem.Grow(63) < 0 { // 4 MiB committed: two whole huge-page ranges
		t.Fatal("grow failed")
	}
	for _, at := range []uintptr{base, base + 4<<20} {
		if flags := vmFlags(t, at); !strings.Contains(" "+flags+" ", " hg ") {
			t.Errorf("after grow, mapping at %#x has VmFlags %q, want hg", at, flags)
		}
	}
}

// vmFlags returns the VmFlags of the mapping in /proc/self/smaps that
// contains addr.
func vmFlags(t *testing.T, addr uintptr) string {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	in := false
	for sc.Scan() {
		line := sc.Text()
		if lo, hi, ok := vmaRange(line); ok {
			in = lo <= uint64(addr) && uint64(addr) < hi
		} else if rest, ok := strings.CutPrefix(line, "VmFlags:"); ok && in {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatalf("no mapping contains %#x", addr)
	return ""
}

// vmaRange parses the "lo-hi perms ..." header line of an smaps entry.
func vmaRange(line string) (lo, hi uint64, ok bool) {
	span, _, found := strings.Cut(line, " ")
	los, his, dash := strings.Cut(span, "-")
	if !found || !dash {
		return 0, 0, false
	}
	lo, err1 := strconv.ParseUint(los, 16, 64)
	hi, err2 := strconv.ParseUint(his, 16, 64)
	return lo, hi, err1 == nil && err2 == nil
}
