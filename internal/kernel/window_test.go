package kernel

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
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

// waitFor polls cond until it holds. It sets no deadline of its own: a
// condition that never comes true is a hang, which go test -timeout reports
// with every goroutine's stack.
func waitFor(cond func() bool) {
	for !cond() {
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
	waitFor(func() bool { return k.Pool().Resident() == sndbuf }) // the writer to fill the window
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
			waitFor(func() bool { return f.(*conn).peer.Len() == sndbuf }) // the writer to fill the window
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

// windowOf returns the send window of p's end of a sized pair: the direction
// p writes and its peer reads.
func windowOf(t *testing.T, p *Proc, fd int) *sendWindow {
	t.Helper()
	f, err := p.lookup(fd)
	if err != nil {
		t.Fatal(err)
	}
	return f.(*conn).snd
}

// parked reports whether a thread is parked on q, one of w's two queues.
func parked(w *sendWindow, q *waitq) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return q.parked > 0
}

// transferResult is what one side of a Write ∥ ReadFull pair returned.
type transferResult struct {
	n   int
	err error
}

// The relay changes which thread moves a byte, never which byte arrives
// where or who is charged for it: every payload size around every boundary
// the path has, with the reader arriving first (the writer relays from its
// first byte), the writer arriving first (the reader meets it mid-queue) and
// the reader held until the writer has filled the window and parked, is
// delivered byte-exact by one write and one recv — each Proc charged its own
// syscall and the payload's bytes once, whichever thread copied them — and
// leaves nothing resident.
func TestRelayDeliversExactly(t *testing.T) {
	const sndbuf = 4 * pagebuf.SlabSize
	seg := (&sendWindow{limit: sndbuf}).segment()
	sizes := []int{0, 1, seg - 1, seg, seg + 1, sndbuf - 1, sndbuf, sndbuf + 1, 4<<20 + 3}
	for _, order := range []string{"reader first", "writer first", "window full"} {
		for _, n := range sizes {
			k, a, b, fa, fb := sizedPair(t, sndbuf)
			w := windowOf(t, a, fa)
			src, got := make([]byte, n), make([]byte, n)
			rand.New(rand.NewSource(int64(n))).Read(src)
			beforeA, beforeB := a.Account().Snapshot(), b.Account().Snapshot()

			wrote, read := make(chan transferResult, 1), make(chan transferResult, 1)
			write := func() {
				n, err := a.Write(fa, src)
				wrote <- transferResult{n, err}
			}
			recv := func() {
				n, err := b.ReadFull(fb, got)
				read <- transferResult{n, err}
			}
			settled := func(done chan transferResult, q *waitq) func() bool {
				return func() bool { return len(done) > 0 || parked(w, q) }
			}
			switch order {
			case "reader first":
				go recv()
				waitFor(settled(read, &w.data)) // the reader to park
				go write()
			case "writer first":
				go write()
				go recv()
			case "window full":
				go write()
				waitFor(settled(wrote, &w.room)) // the writer to park
				go recv()
			}
			wres, rres := <-wrote, <-read
			if wres.n != n || wres.err != nil || rres.n != n || rres.err != nil {
				t.Fatalf("%s, %d bytes: Write = %d, %v; ReadFull = %d, %v", order, n, wres.n, wres.err, rres.n, rres.err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s, %d bytes: payload corrupted", order, n)
			}
			ua, ub := a.Account().Snapshot().Sub(beforeA), b.Account().Snapshot().Sub(beforeB)
			if ua.Syscalls != 1 || ub.Syscalls != 1 || ua.KernelCopyBytes != int64(n) || ub.KernelCopyBytes != int64(n) {
				t.Fatalf("%s, %d bytes: charged write %d syscalls/%d bytes, read %d/%d; want 1/%d each",
					order, n, ua.Syscalls, ua.KernelCopyBytes, ub.Syscalls, ub.KernelCopyBytes, n)
			}
			if res := k.Pool().Resident(); res != 0 {
				t.Fatalf("%s, %d bytes: resident = %d", order, n, res)
			}
			if peak := k.Pool().PeakResident(); peak > sndbuf+pagebuf.SlabSize {
				t.Fatalf("%s, %d bytes: peak resident = %d, want <= window + one slab", order, n, peak)
			}
		}
	}
}

// The rendezvous starts only where the stream is aligned: bytes an earlier
// Write queued and references Tee and Splice lent onto the socket before the
// two calls met are delivered first and in order, and the relayed rest lands
// behind them.
func TestRelayDrainsQueuedAndLentFirst(t *testing.T) {
	const sndbuf, early, lent, late = 4 * pagebuf.SlabSize, 100 << 10, 128 << 10, 1 << 20
	_, a, b, fa, fb := sizedPair(t, sndbuf)
	w := windowOf(t, a, fa)
	var relayed atomic.Int32
	w.claimed = func(bool) { relayed.Add(1) }
	rng := rand.New(rand.NewSource(3))
	first, user, last := make([]byte, early), make([]byte, lent), make([]byte, late)
	rng.Read(first)
	rng.Read(user)
	rng.Read(last)

	if n, err := a.Write(fa, first); n != early || err != nil {
		t.Fatalf("early write = %d, %v", n, err)
	}
	rfd, wfd := a.PipeSized(lent)
	if _, err := a.Vmsplice(wfd, user); err != nil {
		t.Fatal(err)
	}
	if n, err := a.Tee(rfd, fa, lent); n != lent || err != nil {
		t.Fatalf("tee = %d, %v", n, err)
	}
	if n, err := a.Splice(rfd, fa, lent); n != lent || err != nil {
		t.Fatalf("splice = %d, %v", n, err)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := a.Write(fa, last)
		wrote <- err
	}()
	waitFor(func() bool { return parked(w, &w.room) }) // the late writer to park

	got := make([]byte, early+2*lent+late)
	if n, err := b.ReadFull(fb, got); n != len(got) || err != nil {
		t.Fatalf("ReadFull = %d, %v", n, err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	want := bytes.Join([][]byte{first, user, user, last}, nil)
	if !bytes.Equal(got, want) {
		t.Fatal("stream delivered out of order")
	}
	if relayed.Load() == 0 {
		t.Fatal("nothing was relayed once the queue had drained")
	}
}

// Closing either end in the middle of a relay ends both calls with what they
// report today: Write the bytes it got rid of and the ring-closed error,
// ReadFull a contiguous prefix and io.EOF — here the same count, nothing
// having been queued — with no block left resident or released twice (a
// double release panics).
func TestRelayCloseMidway(t *testing.T) {
	const sndbuf, payload, closeAt = 4 * pagebuf.SlabSize, 4 << 20, 9
	for _, closer := range []string{"reader", "writer"} {
		t.Run(closer+" end closes", func(t *testing.T) {
			k, a, b, fa, fb := sizedPair(t, sndbuf)
			w := windowOf(t, a, fa)
			var claims atomic.Int32
			w.claimed = func(bool) {
				if claims.Add(1) != closeAt {
					return
				}
				if closer == "reader" {
					_ = b.Close(fb)
				} else {
					_ = a.Close(fa)
				}
			}
			src, got := make([]byte, payload), make([]byte, payload)
			rand.New(rand.NewSource(4)).Read(src)
			read := make(chan transferResult, 1)
			go func() {
				n, err := b.ReadFull(fb, got)
				read <- transferResult{n, err}
			}()
			waitFor(func() bool { return parked(w, &w.data) }) // the reader to park
			wn, werr := a.Write(fa, src)
			rres := <-read
			if !errors.Is(werr, pagebuf.ErrClosedRing) || rres.err != io.EOF {
				t.Fatalf("Write = %d, %v; ReadFull = %d, %v; want ErrClosedRing and io.EOF", wn, werr, rres.n, rres.err)
			}
			if wn != rres.n || wn < closeAt*pagebuf.SlabSize || wn >= payload {
				t.Fatalf("Write got rid of %d bytes, ReadFull delivered %d; want the same partial count", wn, rres.n)
			}
			if !bytes.Equal(got[:rres.n], src[:rres.n]) {
				t.Fatal("the delivered prefix is not the source's")
			}
			a.CloseAll()
			b.CloseAll()
			if res := k.Pool().Resident(); res != 0 {
				t.Fatalf("resident after close = %d", res)
			}
		})
	}
}

// A faulted call never reaches the window: the other side stays exactly
// where it was — a ReadFull waiting for bytes, a Write parked on the full
// window — until the connection is torn down, and then reports what it
// would have without the relay.
func TestRelayFaults(t *testing.T) {
	const sndbuf, payload = 4 * pagebuf.SlabSize, 1 << 20
	boom := errors.New("boom")
	failing := func(op string) func(string) error {
		return func(got string) error {
			if got == op {
				return boom
			}
			return nil
		}
	}
	t.Run("write", func(t *testing.T) {
		k, a, b, fa, fb := sizedPair(t, sndbuf)
		w := windowOf(t, a, fa)
		read := make(chan transferResult, 1)
		go func() {
			n, err := b.ReadFull(fb, make([]byte, payload))
			read <- transferResult{n, err}
		}()
		waitFor(func() bool { return parked(w, &w.data) }) // the reader to park
		a.InjectFault(failing("write"))
		if n, err := a.Write(fa, make([]byte, payload)); n != 0 || !errors.Is(err, boom) {
			t.Fatalf("faulted Write = %d, %v", n, err)
		}
		if got := a.Account().Snapshot(); got.Syscalls != 1 || got.KernelCopyBytes != 0 {
			t.Fatalf("a faulted Write was charged: %+v", got) // the one syscall is socketpair
		}
		_ = a.Close(fa)
		if res := <-read; res.n != 0 || res.err != io.EOF {
			t.Fatalf("ReadFull after the writer's end closed = %d, %v", res.n, res.err)
		}
		if res := k.Pool().Resident(); res != 0 {
			t.Fatalf("resident = %d", res)
		}
	})
	t.Run("read", func(t *testing.T) {
		k, a, b, fa, fb := sizedPair(t, sndbuf)
		w := windowOf(t, a, fa)
		wrote := make(chan transferResult, 1)
		go func() {
			n, err := a.Write(fa, make([]byte, payload))
			wrote <- transferResult{n, err}
		}()
		waitFor(func() bool { return parked(w, &w.room) }) // the writer to park
		b.InjectFault(failing("read"))
		if n, err := b.ReadFull(fb, make([]byte, payload)); n != 0 || !errors.Is(err, boom) {
			t.Fatalf("faulted ReadFull = %d, %v", n, err)
		}
		_ = b.Close(fb)
		if res := <-wrote; res.n != sndbuf || !errors.Is(res.err, pagebuf.ErrClosedRing) {
			t.Fatalf("Write after the reader's end closed = %d, %v; want the window and ErrClosedRing", res.n, res.err)
		}
		if res := k.Pool().Resident(); res != 0 {
			t.Fatalf("resident = %d", res)
		}
	})
}

// Once both ends have met, both threads move bytes. The hook holds whichever
// thread claims first until the other has claimed too — so the split does not
// depend on scheduling or the core count — and parks to do so: at one P the
// second thread can only claim if nothing on the path busy-waits. The same
// transfer then runs unhooked on a single P, where one thread may well move
// everything but must still finish.
func TestRelayUsesBothThreads(t *testing.T) {
	const sndbuf, payload = 4 * pagebuf.SlabSize, 1 << 20
	src := make([]byte, payload)
	rand.New(rand.NewSource(5)).Read(src)
	transfer := func(t *testing.T, hook func(*sendWindow)) {
		k, a, b, fa, fb := sizedPair(t, sndbuf)
		hook(windowOf(t, a, fa))
		wrote := make(chan error, 1)
		go func() {
			_, err := a.Write(fa, src)
			wrote <- err
		}()
		got := make([]byte, payload)
		if n, err := b.ReadFull(fb, got); n != payload || err != nil {
			t.Fatalf("ReadFull = %d, %v", n, err)
		}
		if err := <-wrote; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src) {
			t.Fatal("payload corrupted")
		}
		if res := k.Pool().Resident(); res != 0 {
			t.Fatalf("resident = %d", res)
		}
	}

	var segments [2]atomic.Int32
	transfer(t, func(w *sendWindow) {
		claimed := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
		w.claimed = func(byWriter bool) {
			me, other := 0, 1
			if byWriter {
				me, other = 1, 0
			}
			if segments[me].Add(1) == 1 {
				close(claimed[me])
			}
			<-claimed[other]
		}
	})
	if r, w := segments[0].Load(), segments[1].Load(); r == 0 || w == 0 || (r+w)*pagebuf.SlabSize > payload {
		t.Fatalf("the reader's thread relayed %d segments, the writer's %d, of a %d-segment payload", r, w, payload/pagebuf.SlabSize)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	transfer(t, func(*sendWindow) {})
}

// The shape the kernel channel's hand-off at dispatch sets up: the ReadFull
// is already in progress when a 4 MiB + 3 Write starts, so nothing is ever
// queued — every segment is relayed, the window is never charged and the
// pool holds at most one block per thread — and each Proc is still charged
// exactly its one syscall and the payload's bytes.
func TestRelayWithReaderWaitingNeverChargesWindow(t *testing.T) {
	const sndbuf, payload = 4 * pagebuf.SlabSize, 4<<20 + 3
	k, a, b, fa, fb := sizedPair(t, sndbuf)
	w := windowOf(t, a, fa)
	var claims atomic.Int32
	w.claimed = func(bool) { claims.Add(1) }
	src, got := make([]byte, payload), make([]byte, payload)
	rand.New(rand.NewSource(7)).Read(src)
	beforeA, beforeB := a.Account().Snapshot(), b.Account().Snapshot()

	read := make(chan transferResult, 1)
	go func() {
		n, err := b.ReadFull(fb, got)
		read <- transferResult{n, err}
	}()
	waitFor(func() bool { return parked(w, &w.data) }) // the reader to park
	if n, err := a.Write(fa, src); n != payload || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if res := <-read; res.n != payload || res.err != nil {
		t.Fatalf("ReadFull = %d, %v", res.n, res.err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("payload corrupted")
	}
	seg := w.segment()
	if n, want := claims.Load(), (payload+seg-1)/seg; int(n) != want {
		t.Fatalf("%d segments relayed, want all %d: the rest was queued", n, want)
	}
	if peak := k.Pool().PeakResident(); peak > 2*pagebuf.SlabSize {
		t.Fatalf("peak resident = %d, want <= one block per thread (%d)", peak, 2*pagebuf.SlabSize)
	}
	ua, ub := a.Account().Snapshot().Sub(beforeA), b.Account().Snapshot().Sub(beforeB)
	if ua.Syscalls != 1 || ub.Syscalls != 1 || ua.KernelCopyBytes != payload || ub.KernelCopyBytes != payload {
		t.Fatalf("charged write %d syscalls/%d bytes, read %d/%d; want 1/%d each",
			ua.Syscalls, ua.KernelCopyBytes, ub.Syscalls, ub.KernelCopyBytes, payload)
	}
	if res := k.Pool().Resident(); res != 0 {
		t.Fatalf("resident = %d", res)
	}
}

// The other order: the writer has filled the window and parked before the
// reader arrives. The reader drains the queue, and once the stream is
// aligned both threads relay — the hook holds whichever claims first until
// the other has claimed too, parking to do so, so the split holds at any
// core count. The same transfer then completes unhooked on a single P.
func TestRelayAfterFullWindowUsesBothThreads(t *testing.T) {
	const sndbuf, payload = 4 * pagebuf.SlabSize, 1 << 20
	src := make([]byte, payload)
	rand.New(rand.NewSource(8)).Read(src)
	transfer := func(t *testing.T, hook func(*sendWindow)) {
		k, a, b, fa, fb := sizedPair(t, sndbuf)
		w := windowOf(t, a, fa)
		hook(w)
		wrote := make(chan error, 1)
		go func() {
			_, err := a.Write(fa, src)
			wrote <- err
		}()
		waitFor(func() bool { return parked(w, &w.room) }) // the writer to fill the window and park
		got := make([]byte, payload)
		if n, err := b.ReadFull(fb, got); n != payload || err != nil {
			t.Fatalf("ReadFull = %d, %v", n, err)
		}
		if err := <-wrote; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, src) {
			t.Fatal("payload corrupted")
		}
		if res := k.Pool().Resident(); res != 0 {
			t.Fatalf("resident = %d", res)
		}
	}

	var segments [2]atomic.Int32 // by the reader's thread, by the writer's
	transfer(t, func(w *sendWindow) {
		claimed := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
		w.claimed = func(byWriter bool) {
			me := 0
			if byWriter {
				me = 1
			}
			if segments[me].Add(1) == 1 {
				close(claimed[me])
			}
			<-claimed[1-me]
		}
	})
	queued := sndbuf / pagebuf.SlabSize
	if r, w := segments[0].Load(), segments[1].Load(); r == 0 || w == 0 || int(r+w) != payload/pagebuf.SlabSize-queued {
		t.Fatalf("the reader's thread relayed %d segments, the writer's %d, of the %d behind the full window",
			r, w, payload/pagebuf.SlabSize-queued)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	transfer(t, func(*sendWindow) {})
}

// Calls of one side take turns: two Writes racing on one socket each arrive
// whole, in one order or the other, whichever threads moved their bytes.
func TestConcurrentWritesTakeTurns(t *testing.T) {
	const sndbuf, each = 4 * pagebuf.SlabSize, 512 << 10
	_, a, b, fa, fb := sizedPair(t, sndbuf)
	var wg sync.WaitGroup
	for _, fill := range []byte{0xAA, 0xBB} {
		wg.Add(1)
		go func(fill byte) {
			defer wg.Done()
			if n, err := a.Write(fa, bytes.Repeat([]byte{fill}, each)); n != each || err != nil {
				t.Errorf("Write = %d, %v", n, err)
			}
		}(fill)
	}
	got := make([]byte, 2*each)
	if n, err := b.ReadFull(fb, got); n != 2*each || err != nil {
		t.Fatalf("ReadFull = %d, %v", n, err)
	}
	wg.Wait()
	lo, hi := got[:each], got[each:]
	if lo[0] == hi[0] || !bytes.Equal(lo, bytes.Repeat(lo[:1], each)) || !bytes.Equal(hi, bytes.Repeat(hi[:1], each)) {
		t.Fatal("the two writes interleaved")
	}
}

// Read and ReadRefs take bytes off a sized socket through the window as
// ReadFull does — waiting on it, crediting what they consumed — so a writer
// parked on the full window resumes behind either.
func TestSizedSocketReadAndReadRefsCredit(t *testing.T) {
	const sndbuf = pagebuf.SlabSize
	k, a, b, fa, fb := sizedPair(t, sndbuf)
	w := windowOf(t, a, fa)
	src := make([]byte, 2*sndbuf)
	rand.New(rand.NewSource(6)).Read(src)
	wrote := make(chan error, 1)
	go func() {
		_, err := a.Write(fa, src)
		wrote <- err
	}()
	waitFor(func() bool { return parked(w, &w.room) }) // the writer to park

	got := make([]byte, 0, len(src))
	buf := make([]byte, sndbuf/2)
	n, err := b.Read(fb, buf)
	if n != len(buf) || err != nil {
		t.Fatalf("Read = %d, %v", n, err)
	}
	got = append(got, buf[:n]...)
	for len(got) < len(src) {
		refs, err := b.ReadRefs(fb, len(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range refs {
			got = append(got, r.Bytes()...)
		}
		pagebuf.ReleaseAll(refs)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("payload corrupted")
	}
	if res := k.Pool().Resident(); res != 0 {
		t.Fatalf("resident = %d", res)
	}
}
