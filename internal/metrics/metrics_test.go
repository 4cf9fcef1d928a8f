package metrics

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestAccountCharges(t *testing.T) {
	var a Account
	a.Copy(User, 100)
	a.Copy(Kernel, 50)
	a.Copy(User, -5) // ignored
	a.Syscall()
	a.Syscall()
	a.CPU(User, 10*time.Millisecond)
	a.CPU(Kernel, 5*time.Millisecond)
	a.Allocate(4096)

	u := a.Snapshot()
	if u.UserCopyBytes != 100 || u.KernelCopyBytes != 50 {
		t.Fatalf("copies = %d/%d", u.UserCopyBytes, u.KernelCopyBytes)
	}
	if u.Syscalls != 2 || u.ContextSwitches != 4 {
		t.Fatalf("syscalls/ctx = %d/%d", u.Syscalls, u.ContextSwitches)
	}
	if u.TotalCPU() != 15*time.Millisecond {
		t.Fatalf("total cpu = %v", u.TotalCPU())
	}
	if u.TotalCopyBytes() != 150 {
		t.Fatalf("total copies = %d", u.TotalCopyBytes())
	}
	if u.ResidentBytes != 4096 || u.PeakResident != 4096 {
		t.Fatalf("resident = %d peak = %d", u.ResidentBytes, u.PeakResident)
	}
}

func TestNilAccountIsSafe(t *testing.T) {
	var a *Account
	a.Copy(User, 10)
	a.Syscall()
	a.CPU(Kernel, time.Second)
	a.Allocate(1)
	a.Reset()
	if u := a.Snapshot(); u != (Usage{}) {
		t.Fatalf("nil account snapshot = %+v", u)
	}
}

func TestPeakResidentTracksHighWater(t *testing.T) {
	var a Account
	a.Allocate(100)
	a.Allocate(-100)
	a.Allocate(60)
	u := a.Snapshot()
	if u.ResidentBytes != 60 || u.PeakResident != 100 {
		t.Fatalf("resident=%d peak=%d", u.ResidentBytes, u.PeakResident)
	}
}

func TestUsageSub(t *testing.T) {
	var a Account
	a.Copy(User, 10)
	before := a.Snapshot()
	a.Copy(User, 25)
	a.Syscall()
	delta := a.Snapshot().Sub(before)
	if delta.UserCopyBytes != 25 || delta.Syscalls != 1 {
		t.Fatalf("delta = %+v", delta)
	}
}

func TestUsageAddProperty(t *testing.T) {
	f := func(a, b int32, sa, sb uint16) bool {
		u1 := Usage{UserCopyBytes: int64(a), Syscalls: int64(sa), ResidentBytes: int64(a)}
		u2 := Usage{UserCopyBytes: int64(b), Syscalls: int64(sb), ResidentBytes: int64(b)}
		sum := u1.Add(u2)
		return sum.UserCopyBytes == int64(a)+int64(b) &&
			sum.Syscalls == int64(sa)+int64(sb) &&
			sum.ResidentBytes == max(int64(a), int64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceString(t *testing.T) {
	if User.String() != "user" || Kernel.String() != "kernel" {
		t.Fatal("space names wrong")
	}
	if !strings.Contains(Space(9).String(), "9") {
		t.Fatal("unknown space should include numeric value")
	}
}

func TestBreakdownTotalAndAdd(t *testing.T) {
	b := Breakdown{Setup: 5, Transfer: 1, Serialization: 2, WasmIO: 3, Network: 4}
	if b.Total() != 15 {
		t.Fatalf("total = %v", b.Total())
	}
	sum := b.Add(b)
	if sum.Total() != 30 {
		t.Fatalf("sum total = %v", sum.Total())
	}
}

// TestBreakdownOverlapCriticalPath: Total subtracts the overlapped window
// (critical-path attribution), never goes negative, and Add carries the
// component through.
func TestBreakdownOverlapCriticalPath(t *testing.T) {
	b := Breakdown{Transfer: 6, WasmIO: 4, Overlap: 3}
	if b.Total() != 7 {
		t.Fatalf("total = %v, want 7", b.Total())
	}
	if sum := b.Add(b); sum.Overlap != 6 || sum.Total() != 14 {
		t.Fatalf("sum = %+v (total %v)", sum, sum.Total())
	}
	if s := b.String(); !strings.Contains(s, "overlap=3ns") {
		t.Fatalf("string = %q", s)
	}
	over := Breakdown{Transfer: 2, Overlap: 5}
	if over.Total() != 0 {
		t.Fatalf("over-credited total = %v, want clamped 0", over.Total())
	}
}

func TestBreakdownString(t *testing.T) {
	b := Breakdown{Serialization: time.Second}
	s := b.String()
	if !strings.Contains(s, "serialization=1s") || strings.Contains(s, "transfer") {
		t.Fatalf("string = %q", s)
	}
	if (Breakdown{}).String() != "breakdown{}" {
		t.Fatalf("empty string = %q", (Breakdown{}).String())
	}
}

func TestTransferReportThroughput(t *testing.T) {
	r := TransferReport{Breakdown: Breakdown{Transfer: 100 * time.Millisecond}}
	if got := r.Throughput(); got < 9.99 || got > 10.01 {
		t.Fatalf("throughput = %v, want ~10", got)
	}
	if (TransferReport{}).Throughput() != 0 {
		t.Fatal("zero-latency throughput should be 0")
	}
}

func TestTransferReportMerge(t *testing.T) {
	a := TransferReport{Bytes: 10, Breakdown: Breakdown{Transfer: time.Second}, Mode: "user"}
	b := TransferReport{Bytes: 5, Breakdown: Breakdown{Network: time.Second}}
	m := a.Merge(b)
	if m.Bytes != 15 || m.Latency() != 2*time.Second || m.Mode != "user" {
		t.Fatalf("merge = %+v", m)
	}
}

func TestStopwatchDeterministic(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	sw := NewStopwatch(clock)
	now = now.Add(42 * time.Millisecond)
	if d := sw.Lap(); d != 42*time.Millisecond {
		t.Fatalf("lap = %v", d)
	}
	now = now.Add(8 * time.Millisecond)
	if d := sw.Lap(); d != 8*time.Millisecond {
		t.Fatalf("second lap = %v", d)
	}
}

func TestStopwatchDefaultsToRealClock(t *testing.T) {
	sw := NewStopwatch(nil)
	if d := sw.Lap(); d < 0 {
		t.Fatalf("negative lap %v", d)
	}
}
