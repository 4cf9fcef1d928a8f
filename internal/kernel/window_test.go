package kernel

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/pagebuf"
)

// sizedPair returns two processes on one kernel joined by a socketpair with
// the given send window, each charging its own account.
func sizedPair(t *testing.T, sndbuf int) (k *Kernel, a, b *Proc, fa, fb int) {
	t.Helper()
	k = New("n")
	a = k.NewProc("a", &metrics.Account{})
	b = k.NewProc("b", &metrics.Account{})
	fa, fb, err := SocketPairSized(a, b, sndbuf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.CloseAll)
	t.Cleanup(b.CloseAll)
	return k, a, b, fa, fb
}

// waitFor polls cond until it holds; the deadline only bounds a hang.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// The window bounds staged memory: while a 4 MiB Write streams through a
// sized socket the pool never holds more than sndbuf plus the one slab the
// reader has popped and is copying out — with a reader that has not started
// yet exactly sndbuf — and nothing stays resident afterwards.
func TestSendWindowBoundsStagedBytes(t *testing.T) {
	const sndbuf, payload = 4 * pagebuf.SlabSize, 4 << 20
	k, a, b, fa, fb := sizedPair(t, sndbuf)
	src := make([]byte, payload)
	rand.New(rand.NewSource(1)).Read(src)

	done := make(chan error, 1)
	go func() {
		_, err := a.Write(fa, src)
		done <- err
	}()
	// The writer fills the window and parks; with nobody reading, the pool
	// holds exactly the window.
	waitFor(t, "the writer to fill the window", func() bool { return k.Pool().Resident() == sndbuf })
	select {
	case err := <-done:
		t.Fatalf("Write returned (%v) with %d of %d bytes unread", err, payload-sndbuf, payload)
	case <-time.After(5 * time.Millisecond):
	}
	if got := k.Pool().Resident(); got != sndbuf {
		t.Fatalf("resident with a parked writer = %d, want the window %d", got, sndbuf)
	}

	got := make([]byte, payload)
	if n, err := b.ReadFull(fb, got); n != payload || err != nil {
		t.Fatalf("ReadFull = %d, %v", n, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("payload corrupted through the window")
	}
	if peak := k.Pool().PeakResident(); peak > sndbuf+pagebuf.SlabSize {
		t.Fatalf("peak resident = %d, want <= window + one slab (%d)", peak, sndbuf+pagebuf.SlabSize)
	}
	if res := k.Pool().Resident(); res != 0 {
		t.Fatalf("resident after the transfer = %d", res)
	}
}

// Only copied bytes are charged. References spliced or tee'd into a sized
// socket are lent pages: they queue without waiting however many they are,
// and the copied bytes of a later Write still get the whole window — in
// whatever order reads then consume the two kinds.
func TestSendWindowDoesNotChargeLentRefs(t *testing.T) {
	const sndbuf, lent = pagebuf.SlabSize, 1 << 20
	k, a, b, fa, fb := sizedPair(t, sndbuf)
	user := make([]byte, lent)
	rand.New(rand.NewSource(2)).Read(user)
	rfd, wfd := a.PipeSized(lent)

	// 1 MiB of gifted memory, tee'd and then spliced into a 64 KiB-window
	// socket: 2 MiB of references, none of them waits.
	if _, err := a.Vmsplice(wfd, user); err != nil {
		t.Fatal(err)
	}
	if n, err := a.Tee(rfd, fa, lent); n != lent || err != nil {
		t.Fatalf("tee = %d, %v", n, err)
	}
	if n, err := a.Splice(rfd, fa, lent); n != lent || err != nil {
		t.Fatalf("splice = %d, %v", n, err)
	}
	if res := k.Pool().Resident(); res != 0 {
		t.Fatalf("lent references pinned %d pool bytes", res)
	}
	// A full window of copied bytes behind them does not wait either.
	copied := bytes.Repeat([]byte{0xC0}, sndbuf)
	if n, err := a.Write(fa, copied); n != sndbuf || err != nil {
		t.Fatalf("write behind lent refs = %d, %v", n, err)
	}
	// One more byte has no room until the copied bytes are consumed; the
	// 2 MiB of lent bytes ahead of them do not count and do not free it.
	done := make(chan error, 1)
	go func() {
		_, err := a.Write(fa, []byte{0xC1})
		done <- err
	}()
	got := make([]byte, 2*lent)
	if n, err := b.ReadFull(fb, got); n != 2*lent || err != nil {
		t.Fatalf("ReadFull lent = %d, %v", n, err)
	}
	if !bytes.Equal(got[:lent], user) || !bytes.Equal(got[lent:], user) {
		t.Fatal("lent bytes corrupted")
	}
	select {
	case err := <-done:
		t.Fatalf("1-byte Write got room (%v) while a full window of copied bytes was queued", err)
	case <-time.After(5 * time.Millisecond):
	}
	got = got[:sndbuf+1]
	if n, err := b.ReadFull(fb, got); n != sndbuf+1 || err != nil {
		t.Fatalf("ReadFull copied = %d, %v", n, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:sndbuf], copied) || got[sndbuf] != 0xC1 {
		t.Fatal("copied bytes corrupted")
	}
}

// Closing the peer while a Write is parked on the window fails the Write,
// reports how much was queued, and leaves nothing resident: what was queued
// is drained by the close, what was not yet copied never touched the pool,
// and no block is released twice (a double release panics).
func TestSendWindowCloseWhileBlocked(t *testing.T) {
	const sndbuf, payload = 2 * pagebuf.SlabSize, 1 << 20
	for _, closer := range []string{"reader", "writer"} {
		t.Run(closer+" end closes", func(t *testing.T) {
			k, a, b, fa, fb := sizedPair(t, sndbuf)
			type result struct {
				n   int
				err error
			}
			done := make(chan result, 1)
			go func() {
				n, err := a.Write(fa, make([]byte, payload))
				done <- result{n, err}
			}()
			// Queued, not merely copied: the segment that fills the window
			// is on the ring, so the writer's next step is the wait.
			f, _ := a.lookup(fa)
			waitFor(t, "the writer to fill the window", func() bool { return f.(*conn).peer.Len() == sndbuf })
			if closer == "reader" {
				_ = b.Close(fb)
			} else {
				_ = a.Close(fa)
			}
			res := <-done
			if !errors.Is(res.err, pagebuf.ErrClosedRing) {
				t.Fatalf("Write after close = %v, want ErrClosedRing", res.err)
			}
			if res.n != sndbuf {
				t.Fatalf("Write queued %d bytes before the close, want the window %d", res.n, sndbuf)
			}
			// The far end may still hold the queued window (a closed writer's
			// bytes stay readable); closing it drains them.
			a.CloseAll()
			b.CloseAll()
			if got := k.Pool().Resident(); got != 0 {
				t.Fatalf("resident after close = %d", got)
			}
			if got := a.Account().Snapshot().KernelCopyBytes; got != payload {
				t.Fatalf("kernel copy bytes = %d, want the one up-front charge %d", got, payload)
			}
		})
	}
}

// The window changes when the two copies happen, never how many crossings
// or bytes the kernel path is charged: Write + ReadFull are 1 + 1 syscalls
// and 2·len kernel copy bytes at every size, sized or not.
func TestWriteReadFullCharges(t *testing.T) {
	for _, sndbuf := range []int{0, 4 * pagebuf.SlabSize} {
		for _, n := range []int{1, pagebuf.SlabSize, 4<<20 + 1} {
			k, a, b, fa, fb := sizedPair(t, sndbuf)
			src := make([]byte, n)
			rand.New(rand.NewSource(int64(n))).Read(src)
			got := make([]byte, n)
			beforeA, beforeB := a.Account().Snapshot(), b.Account().Snapshot()

			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := a.Write(fa, src); err != nil {
					t.Error(err)
				}
			}()
			if rn, err := b.ReadFull(fb, got); rn != n || err != nil {
				t.Fatalf("sndbuf %d, %d bytes: ReadFull = %d, %v", sndbuf, n, rn, err)
			}
			wg.Wait()
			if !bytes.Equal(got, src) {
				t.Fatalf("sndbuf %d, %d bytes: payload corrupted", sndbuf, n)
			}
			ua, ub := a.Account().Snapshot().Sub(beforeA), b.Account().Snapshot().Sub(beforeB)
			if ua.Syscalls != 1 || ub.Syscalls != 1 {
				t.Fatalf("sndbuf %d, %d bytes: syscalls write=%d read=%d, want 1+1", sndbuf, n, ua.Syscalls, ub.Syscalls)
			}
			if ua.KernelCopyBytes != int64(n) || ub.KernelCopyBytes != int64(n) {
				t.Fatalf("sndbuf %d, %d bytes: kernel copy bytes write=%d read=%d, want %d each",
					sndbuf, n, ua.KernelCopyBytes, ub.KernelCopyBytes, n)
			}
			if res := k.Pool().Resident(); res != 0 {
				t.Fatalf("sndbuf %d, %d bytes: resident = %d", sndbuf, n, res)
			}
		}
	}
}

// ReadFull is recv(MSG_WAITALL): it waits across writes until the buffer is
// full, returns short with io.EOF when the peer closes first, consults the
// "read" fault hook, and works on a pipe as well as a socket.
func TestReadFullSemantics(t *testing.T) {
	_, a, b, fa, fb := sizedPair(t, 0)
	go func() {
		for _, part := range []string{"he", "ll", "o"} {
			if _, err := a.Write(fa, []byte(part)); err != nil {
				t.Error(err)
			}
		}
	}()
	buf := make([]byte, 5)
	if n, err := b.ReadFull(fb, buf); n != 5 || err != nil || string(buf) != "hello" {
		t.Fatalf("ReadFull across writes = %d, %v, %q", n, err, buf)
	}

	if _, err := a.Write(fa, []byte("by")); err != nil {
		t.Fatal(err)
	}
	_ = a.Close(fa)
	if n, err := b.ReadFull(fb, buf); n != 2 || err != io.EOF {
		t.Fatalf("ReadFull after peer close = %d, %v, want 2, io.EOF", n, err)
	}

	boom := errors.New("boom")
	b.InjectFault(func(op string) error {
		if op == "read" {
			return boom
		}
		return nil
	})
	before := b.Account().Snapshot().Syscalls
	if _, err := b.ReadFull(fb, buf); !errors.Is(err, boom) {
		t.Fatalf("faulted ReadFull = %v", err)
	}
	if got := b.Account().Snapshot().Syscalls; got != before {
		t.Fatal("a faulted ReadFull charged a syscall")
	}
	b.InjectFault(nil)

	rfd, wfd := a.Pipe()
	if _, err := a.Write(wfd, []byte("pipe!")); err != nil {
		t.Fatal(err)
	}
	if n, err := a.ReadFull(rfd, buf); n != 5 || err != nil || string(buf) != "pipe!" {
		t.Fatalf("ReadFull on a pipe = %d, %v, %q", n, err, buf)
	}
	if _, err := a.ReadFull(wfd, buf); !errors.Is(err, ErrBadFD) {
		t.Fatalf("ReadFull on a write end = %v, want ErrBadFD", err)
	}
}
