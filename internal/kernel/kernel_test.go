package kernel

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/pagebuf"
)

func newTestProc(t *testing.T) (*Proc, *metrics.Account) {
	t.Helper()
	k := New("test-node")
	acct := &metrics.Account{}
	p := k.NewProc("proc", acct)
	t.Cleanup(p.CloseAll)
	return p, acct
}

func TestPipeWriteRead(t *testing.T) {
	p, acct := newTestProc(t)
	rfd, wfd := p.Pipe()
	msg := []byte("through the data hose")
	if _, err := p.Write(wfd, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	n, err := p.Read(rfd, got)
	if err != nil || n != len(msg) {
		t.Fatalf("read = (%d, %v)", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
	u := acct.Snapshot()
	// write: copy_from_user; read: copy_to_user — both kernel-boundary copies.
	if u.KernelCopyBytes != int64(2*len(msg)) {
		t.Fatalf("kernel copies = %d, want %d", u.KernelCopyBytes, 2*len(msg))
	}
	if u.Syscalls != 3 { // pipe + write + read
		t.Fatalf("syscalls = %d, want 3", u.Syscalls)
	}
}

func TestVmspliceIsZeroCopy(t *testing.T) {
	p, acct := newTestProc(t)
	rfd, wfd := p.PipeSized(1 << 20)
	payload := make([]byte, 100*1024)
	rand.New(rand.NewSource(7)).Read(payload)

	before := acct.Snapshot()
	if _, err := p.Vmsplice(wfd, payload); err != nil {
		t.Fatal(err)
	}
	delta := acct.Snapshot().Sub(before)
	if delta.TotalCopyBytes() != 0 {
		t.Fatalf("vmsplice copied %d bytes, want 0", delta.TotalCopyBytes())
	}
	if delta.Syscalls != 1 {
		t.Fatalf("vmsplice syscalls = %d", delta.Syscalls)
	}

	got := make([]byte, len(payload))
	if _, err := io.ReadFull(readerFor(p, rfd), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted")
	}
}

func TestVmspliceRequiresPipe(t *testing.T) {
	k := New("n")
	a := k.NewProc("a", nil)
	b := k.NewProc("b", nil)
	fa, _, err := SocketPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Vmsplice(fa, []byte("x")); !errors.Is(err, ErrNotSupported) {
		t.Fatalf("vmsplice to socket = %v, want ErrNotSupported", err)
	}
}

func TestSpliceMovesWithoutCopy(t *testing.T) {
	k := New("n")
	acct := &metrics.Account{}
	a := k.NewProc("a", acct)
	b := k.NewProc("b", nil)
	defer a.CloseAll()
	defer b.CloseAll()

	rfd, wfd := a.PipeSized(1 << 20)
	sa, sb, err := SocketPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 300*1024)
	rand.New(rand.NewSource(9)).Read(payload)
	if _, err := a.Vmsplice(wfd, payload); err != nil {
		t.Fatal(err)
	}

	before := acct.Snapshot()
	moved := 0
	for moved < len(payload) {
		n, err := a.Splice(rfd, sa, len(payload)-moved)
		if err != nil {
			t.Fatal(err)
		}
		moved += n
	}
	delta := acct.Snapshot().Sub(before)
	if delta.TotalCopyBytes() != 0 {
		t.Fatalf("splice copied %d bytes, want 0", delta.TotalCopyBytes())
	}

	got := make([]byte, len(payload))
	if _, err := io.ReadFull(readerFor(b, sb), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted across splice")
	}
}

func TestSpliceRequiresAPipe(t *testing.T) {
	k := New("n")
	a := k.NewProc("a", nil)
	b := k.NewProc("b", nil)
	s1a, _, err := SocketPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s2a, _, err := SocketPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Splice(s1a, s2a, 10); !errors.Is(err, ErrNotSupported) {
		t.Fatalf("socket->socket splice = %v, want ErrNotSupported", err)
	}
}

func TestSpliceInvalidLength(t *testing.T) {
	p, _ := newTestProc(t)
	rfd, wfd := p.Pipe()
	if _, err := p.Splice(rfd, wfd, 0); !errors.Is(err, ErrInvalid) {
		t.Fatalf("splice n=0 = %v, want ErrInvalid", err)
	}
}

func TestReadRefsHandsPagesToUser(t *testing.T) {
	p, acct := newTestProc(t)
	rfd, wfd := p.PipeSized(1 << 20)
	payload := []byte("pages, not copies")
	if _, err := p.Vmsplice(wfd, payload); err != nil {
		t.Fatal(err)
	}
	before := acct.Snapshot()
	refs, err := p.ReadRefs(rfd, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer pagebuf.ReleaseAll(refs)
	if delta := acct.Snapshot().Sub(before); delta.TotalCopyBytes() != 0 {
		t.Fatalf("ReadRefs copied %d bytes", delta.TotalCopyBytes())
	}
	if got := pagebuf.TotalLen(refs); got != len(payload) {
		t.Fatalf("moved %d bytes", got)
	}
}

func TestBadFDErrors(t *testing.T) {
	p, _ := newTestProc(t)
	if _, err := p.Write(99, []byte("x")); !errors.Is(err, ErrBadFD) {
		t.Fatalf("write bad fd = %v", err)
	}
	if _, err := p.Read(99, make([]byte, 1)); !errors.Is(err, ErrBadFD) {
		t.Fatalf("read bad fd = %v", err)
	}
	if err := p.Close(99); !errors.Is(err, ErrBadFD) {
		t.Fatalf("close bad fd = %v", err)
	}
	if _, err := p.Vmsplice(99, nil); !errors.Is(err, ErrBadFD) {
		t.Fatalf("vmsplice bad fd = %v", err)
	}
	if _, err := p.ReadRefs(99, 1); !errors.Is(err, ErrBadFD) {
		t.Fatalf("readrefs bad fd = %v", err)
	}
}

func TestPipeDirectionEnforcement(t *testing.T) {
	p, _ := newTestProc(t)
	rfd, wfd := p.Pipe()
	if _, err := p.Write(rfd, []byte("x")); !errors.Is(err, ErrBadFD) {
		t.Fatalf("write to read end = %v", err)
	}
	if _, err := p.Read(wfd, make([]byte, 1)); !errors.Is(err, ErrBadFD) {
		t.Fatalf("read from write end = %v", err)
	}
}

func TestSocketPairSameKernelOnly(t *testing.T) {
	a := New("n1").NewProc("a", nil)
	b := New("n2").NewProc("b", nil)
	if _, _, err := SocketPair(a, b); !errors.Is(err, ErrInvalid) {
		t.Fatalf("cross-kernel socketpair = %v, want ErrInvalid", err)
	}
}

func TestSocketPairDuplex(t *testing.T) {
	k := New("n")
	a := k.NewProc("a", nil)
	b := k.NewProc("b", nil)
	fa, fb, err := SocketPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(fa, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(readerFor(b, fb), buf); err != nil || string(buf) != "ping" {
		t.Fatalf("b got %q, %v", buf, err)
	}
	if _, err := b.Write(fb, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(readerFor(a, fa), buf); err != nil || string(buf) != "pong" {
		t.Fatalf("a got %q, %v", buf, err)
	}
}

func TestConnectAcrossKernels(t *testing.T) {
	ka, kb := New("edge"), New("cloud")
	a := ka.NewProc("client", nil)
	b := kb.NewProc("server", nil)
	fa, fb := Connect(a, b)
	msg := make([]byte, 50_000)
	rand.New(rand.NewSource(3)).Read(msg)
	if _, err := a.Write(fa, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(readerFor(b, fb), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("payload corrupted across TCP-like connection")
	}
}

func TestCloseMakesPeerReadEOF(t *testing.T) {
	k := New("n")
	a := k.NewProc("a", nil)
	b := k.NewProc("b", nil)
	fa, fb, err := SocketPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(fa); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(fb, make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer read after close = %v, want io.EOF", err)
	}
}

func TestStreamAdapter(t *testing.T) {
	k := New("n")
	a := k.NewProc("a", nil)
	b := k.NewProc("b", nil)
	fa, fb, err := SocketPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := NewStream(a, fa), NewStream(b, fb)
	if sa.FD() != fa {
		t.Fatalf("FD() = %d", sa.FD())
	}
	if _, err := sa.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(sb)
	if err != nil || string(got) != "hello" {
		t.Fatalf("ReadAll = %q, %v", got, err)
	}
}

func TestSyscallTime(t *testing.T) {
	k := New("n")
	k.SetCosts(CostModel{SyscallOverhead: 100})
	if got := k.SyscallTime(5); got != 500 {
		t.Fatalf("syscall time = %v", got)
	}
	if k.Costs().SyscallOverhead != 100 {
		t.Fatal("SetCosts not applied")
	}
}

// Property: any payload pushed through pipe→splice→socket arrives intact,
// however the vmsplices cut it into extents and the splices and tees split
// those at offsets that are no page multiple.
func TestHoseConservationProperty(t *testing.T) {
	f := func(data []byte, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		if len(data) > 0 {
			// quick's slices are short: stretch the payload over several
			// pages with a ragged tail so extents straddle page boundaries.
			stretched := make([]byte, 3*pagebuf.PageSize+len(data))
			rng.Read(stretched)
			copy(stretched, data)
			data = stretched
		}
		k := New("n")
		a := k.NewProc("a", nil)
		b := k.NewProc("b", nil)
		defer a.CloseAll()
		defer b.CloseAll()
		rfd, wfd := a.PipeSized(1 << 24)
		sa, sb, err := SocketPair(a, b)
		if err != nil {
			return false
		}
		teeR, teeW := a.PipeSized(1 << 24)
		for off := 0; off < len(data); {
			n := min(1+rng.Intn(2*pagebuf.PageSize), len(data)-off)
			if _, err := a.Vmsplice(wfd, data[off:off+n]); err != nil {
				return false
			}
			off += n
		}
		for moved := 0; moved < len(data); {
			want := min(1+rng.Intn(3*pagebuf.PageSize), len(data)-moved)
			// tee(2) the next bytes aside without consuming them, then
			// splice the same bytes onward.
			if n, err := a.Tee(rfd, teeW, want); err != nil || n != want {
				return false
			}
			for left := want; left > 0; {
				n, err := a.Splice(rfd, sa, left)
				if err != nil {
					return false
				}
				left -= n
			}
			moved += want
		}
		if err := a.Close(sa); err != nil {
			return false
		}
		if err := a.Close(teeW); err != nil {
			return false
		}
		got, err := io.ReadAll(readerFor(b, sb))
		if err != nil {
			return false
		}
		teed, err := io.ReadAll(readerFor(a, teeR))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data) && bytes.Equal(teed, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func readerFor(p *Proc, fd int) io.Reader { return NewStream(p, fd) }
