// Package kernel simulates the host-kernel mechanisms Roadrunner relies on:
// processes with file-descriptor tables, pipes (the paper's "virtual data
// hose"), Unix-domain and TCP-style stream sockets, and the splice(2) /
// vmsplice(2) zero-copy primitives (§4.3, Algorithm 1).
//
// All payload movement is real — bytes are genuinely copied, or genuinely
// moved by page reference — and every copy, syscall and context switch is
// charged to the calling process's metrics.Account. This substitutes for the
// Linux kernel of the paper's testbed while making the quantities the paper
// argues about (copy counts, user↔kernel crossings) exact and assertable.
//
// Two buffer disciplines coexist. Pipes are bounded rings: a writer waits for
// room, which is the hose's back-pressure. Socket rings are unbounded and
// never make a sender of references wait; what bounds a socket is the send
// window of a sized pair (SocketPairSized), which charges only the bytes
// Write copies into pool blocks — the most a writer may queue ahead of a
// reader that has not arrived — while lent (spliced, tee'd) pages queue
// freely. Once a Write and a ReadFull are both in progress on a sized socket
// and the queue between them has drained, nothing more is queued at all: the
// two calling threads relay the rest, each moving whole segments source →
// its own pool block → destination (pipe.go, sendWindow). Which thread
// executes a copy is the one thing idealised there; the syscalls, the two
// copies through kernel memory and who is charged for them are not.
package kernel

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/pagebuf"
)

// Kernel errors mirror their errno counterparts.
var (
	ErrBadFD        = errors.New("kernel: bad file descriptor (EBADF)")
	ErrInvalid      = errors.New("kernel: invalid argument (EINVAL)")
	ErrClosed       = errors.New("kernel: connection closed (EPIPE)")
	ErrNotSupported = errors.New("kernel: operation not supported on file (ENOTSUP)")
)

// Default buffer sizes.
const (
	// DefaultPipeCap matches the 16-page default Linux pipe buffer.
	DefaultPipeCap = 16 * pagebuf.PageSize
	// DefaultSocketCap is effectively unbounded: a socket ring queues
	// references without ever making the sender wait. That is what
	// reference traffic needs (a tee'd or spliced extent is lent memory;
	// blocking it per ring-full would serialize a fan-out for nothing) and
	// what single-goroutine byte streams need (internal/baseline and
	// minihttp write a whole message, then read it). Copied bytes are
	// bounded where it matters by the send window of a sized socket
	// (SocketPairSized), and memory held is tracked through the page pool
	// either way.
	DefaultSocketCap = 1 << 62
)

// CostModel carries the modeled (non-measured) per-operation costs. Only
// mode-switch overhead is modeled; all data movement is measured for real.
type CostModel struct {
	// SyscallOverhead is charged per syscall as kernel CPU time; it
	// models the user→kernel→user mode switch that a function call in
	// this simulation does not pay. Linux syscall entry/exit costs are
	// on the order of hundreds of nanoseconds.
	SyscallOverhead time.Duration
}

// DefaultCostModel returns the calibration used by the experiments.
func DefaultCostModel() CostModel {
	return CostModel{SyscallOverhead: 400 * time.Nanosecond}
}

// Kernel is one simulated host kernel. Each cluster node has its own.
type Kernel struct {
	name string
	pool *pagebuf.Pool

	mu    sync.Mutex
	costs CostModel
	procs []*Proc

	// kernel-wide fault injection hook (node-level failure), see
	// Kernel.InjectFault in fault.go.
	faultMu sync.Mutex
	faultFn func(op string) error
}

// New returns a kernel for the named node using the default cost model.
func New(name string) *Kernel {
	return &Kernel{name: name, pool: pagebuf.NewPool(), costs: DefaultCostModel()}
}

// Name returns the node name this kernel belongs to.
func (k *Kernel) Name() string { return k.name }

// Pool exposes the kernel page pool (for residency metrics).
func (k *Kernel) Pool() *pagebuf.Pool { return k.pool }

// Costs returns the kernel's cost model.
func (k *Kernel) Costs() CostModel {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.costs
}

// SetCosts replaces the cost model (used by ablation benchmarks).
func (k *Kernel) SetCosts(c CostModel) {
	k.mu.Lock()
	k.costs = c
	k.mu.Unlock()
}

// SyscallTime converts a syscall count into modeled mode-switch time; the
// shim layers add it to the Transfer component of latency breakdowns.
func (k *Kernel) SyscallTime(n int64) time.Duration {
	return time.Duration(n) * k.Costs().SyscallOverhead
}

// NewProc creates a process on this kernel charging work to acct. A nil
// account is valid and discards charges.
func (k *Kernel) NewProc(name string, acct *metrics.Account) *Proc {
	p := &Proc{
		k:    k,
		name: name,
		acct: acct,
		fds:  make(map[int]file),
		next: 3, // 0..2 reserved, as on a real system
	}
	k.mu.Lock()
	k.procs = append(k.procs, p)
	k.mu.Unlock()
	return p
}

// file is the kernel-internal interface all FD-addressable objects satisfy.
type file interface {
	// writeRefs queues page references on the file (ownership transfers).
	writeRefs(refs []pagebuf.Ref) error
	// readRefs dequeues up to max payload bytes of page references,
	// appending them to dst.
	readRefs(dst []pagebuf.Ref, max int) ([]pagebuf.Ref, error)
	// readInto copies queued bytes into b.
	readInto(b []byte) (int, error)
	// capacity reports the buffer capacity in bytes.
	capacity() int
	// writeCopy copies b into pool blocks and queues them — the body of
	// write(2) — building the run in scratch, which it returns for
	// recycling along with the number of bytes queued.
	writeCopy(pool *pagebuf.Pool, scratch []pagebuf.Ref, b []byte) (int, []pagebuf.Ref, error)
	// readFull fills b from the queue — the body of recv(MSG_WAITALL) —
	// popping through scratch, which it returns for recycling along with
	// the number of bytes delivered; short only with an error.
	readFull(pool *pagebuf.Pool, scratch []pagebuf.Ref, b []byte) (int, []pagebuf.Ref, error)
	close() error
}

// Proc is a simulated process: the holder of a file-descriptor table and the
// unit resource usage is charged to (the paper measures per-sandbox cgroups;
// a Proc is a sandbox here).
type Proc struct {
	k    *Kernel
	name string
	acct *metrics.Account

	mu   sync.Mutex
	fds  map[int]file
	next int

	// fault injection hook (tests), see InjectFault.
	faultMu sync.Mutex
	faultFn func(op string) error
}

// InjectFault installs fn as the process's syscall fault hook: every
// data-plane operation (write, read, vmsplice, splice, tee, readrefs)
// consults the hook with the operation name before doing any work, and a
// non-nil return fails the call with that error. Control-plane calls (pipe,
// connect, socketpair, close) are never intercepted, so error paths can
// always tear down. Installing nil clears the hook. Tests use this to drive
// transfer paths through every failure point and assert descriptor and
// page-pool conservation.
func (p *Proc) InjectFault(fn func(op string) error) {
	p.faultMu.Lock()
	p.faultFn = fn
	p.faultMu.Unlock()
}

// fault consults the injection hooks — the process's own, then the
// kernel-wide one (node-level failure) — and a non-nil error aborts the
// calling operation before any syscall is charged or any state changes.
func (p *Proc) fault(op string) error {
	p.faultMu.Lock()
	fn := p.faultFn
	p.faultMu.Unlock()
	if fn != nil {
		if err := fn(op); err != nil {
			return err
		}
	}
	return p.k.fault(op)
}

// NumFDs reports the number of open descriptors in the process's FD table
// (for leak assertions in tests and residency audits).
func (p *Proc) NumFDs() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.fds)
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Account returns the process's resource account.
func (p *Proc) Account() *metrics.Account { return p.acct }

func (p *Proc) install(f file) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	fd := p.next
	p.next++
	p.fds[fd] = f
	return fd
}

func (p *Proc) lookup(fd int) (file, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.fds[fd]
	if !ok {
		return nil, fmt.Errorf("fd %d: %w", fd, ErrBadFD)
	}
	return f, nil
}

// Close closes a file descriptor.
func (p *Proc) Close(fd int) error {
	p.mu.Lock()
	f, ok := p.fds[fd]
	delete(p.fds, fd)
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("fd %d: %w", fd, ErrBadFD)
	}
	p.acct.Syscall()
	return f.close()
}

// CloseAll closes every open descriptor (process teardown).
func (p *Proc) CloseAll() {
	p.mu.Lock()
	fds := p.fds
	p.fds = make(map[int]file)
	p.mu.Unlock()
	for _, f := range fds {
		_ = f.close()
	}
}

// refScratch recycles the transient []Ref runs the syscalls build between
// producing references (AppendCopy, AppendGift, readRefs, Clone) and
// writeRefs. The run only carries references across that window — buffers
// copy the Ref values into their own queues — so the backing array is
// reusable the moment writeRefs returns, and a warm Write, Vmsplice, Splice
// or Tee allocates no reference slice.
var refScratch = sync.Pool{New: func() any {
	s := make([]pagebuf.Ref, 0, 64)
	return &s
}}

// putScratch recycles run's backing array through sp. Clear before
// recycling: a pooled array must not pin pages the buffer now owns. (On
// error writeRefs already released the refs it rejected.)
func putScratch(sp *[]pagebuf.Ref, run []pagebuf.Ref) {
	clear(run)
	*sp = run[:0]
	refScratch.Put(sp)
}

// Write copies b from user space into the file's kernel buffer, exactly as
// write(2) does: one syscall, one copy_from_user of the full payload. It
// blocks until the buffer accepts all bytes. On a pipe or an unsized socket
// the whole payload is staged, then queued. On a sized socket
// (SocketPairSized) the call proceeds segment by segment as write(2) does
// against SO_SNDBUF — wait until the segment fits the send window, copy it
// into a slab, queue it — so at most the window's worth of copied bytes is
// ever staged ahead of the reader, and a writer that fills it parks. From
// the moment a ReadFull is in progress on the other end it queues nothing
// more: when what is queued has drained, the two calls relay — each of the
// two calling threads claims the next segment and moves it b → a pool block
// it holds for the whole call → the reader's buffer — so b may be read by the
// reader's thread until Write returns, not after. The syscall and the
// copy_from_user of len(b) are charged to p up front either way; no CPU time
// is charged here (callers time the call, so each thread's copying lands on
// the account of the Proc whose syscall it is inside). It returns the number
// of bytes queued or relayed.
func (p *Proc) Write(fd int, b []byte) (int, error) {
	if err := p.fault("write"); err != nil {
		return 0, err
	}
	f, err := p.lookup(fd)
	if err != nil {
		return 0, err
	}
	p.acct.Syscall()
	p.acct.Copy(metrics.Kernel, len(b))
	sp := refScratch.Get().(*[]pagebuf.Ref)
	n, refs, err := f.writeCopy(p.k.pool, (*sp)[:0], b)
	putScratch(sp, refs)
	if err != nil {
		return n, fmt.Errorf("write fd %d: %w", fd, err)
	}
	return n, nil
}

// stageWhole is writeCopy for a buffer without a send window: the whole of b
// is copied into pool blocks, then queued.
func stageWhole(f file, pool *pagebuf.Pool, scratch []pagebuf.Ref, b []byte) (int, []pagebuf.Ref, error) {
	refs := pool.AppendCopy(scratch, b)
	if err := f.writeRefs(refs); err != nil {
		return 0, refs, err
	}
	return len(b), refs, nil
}

// Read copies up to len(b) queued bytes into b (copy_to_user): one syscall,
// one boundary copy. It blocks until at least one byte is available.
func (p *Proc) Read(fd int, b []byte) (int, error) {
	if err := p.fault("read"); err != nil {
		return 0, err
	}
	f, err := p.lookup(fd)
	if err != nil {
		return 0, err
	}
	p.acct.Syscall()
	n, err := f.readInto(b)
	p.acct.Copy(metrics.Kernel, n)
	return n, err
}

// ReadFull fills b from the file's buffer, modeling recv(2) with
// MSG_WAITALL: one syscall however the bytes trickle in, so the crossing
// count of a transfer does not depend on how writer and reader interleave.
// It returns when b is full, or short with io.EOF once the buffer is closed
// and drained — short by a contiguous prefix of b. What is queued is popped
// a slab's worth at a time and copied and released outside the buffer's
// lock. On a sized socket that is only how the call starts: once it has
// drained what a Write in progress on the other end queued ahead of it, the
// two calls have met and the rest is relayed (see Write) — so b may be
// written by the writer's thread until ReadFull returns, not after.
func (p *Proc) ReadFull(fd int, b []byte) (int, error) {
	if err := p.fault("read"); err != nil {
		return 0, err
	}
	f, err := p.lookup(fd)
	if err != nil {
		return 0, err
	}
	p.acct.Syscall()
	sp := refScratch.Get().(*[]pagebuf.Ref)
	n, refs, err := f.readFull(p.k.pool, (*sp)[:0], b)
	putScratch(sp, refs)
	p.acct.Copy(metrics.Kernel, n)
	return n, err
}

// popFull is readFull for a buffer without a send window: pop up to a slab
// of references, copy them out, release them, until b is full.
func popFull(f file, refs []pagebuf.Ref, b []byte) (int, []pagebuf.Ref, error) {
	var err error
	n := 0
	for err == nil && n < len(b) {
		refs, err = f.readRefs(refs[:0], min(len(b)-n, pagebuf.SlabSize))
		for _, r := range refs {
			n += copy(b[n:], r.Bytes())
		}
		pagebuf.ReleaseAll(refs)
	}
	return n, refs, err
}

// Vmsplice maps user memory into the file's buffer without copying, modeling
// vmsplice(2) with SPLICE_F_GIFT: the pages of b are gifted to the kernel and
// b must not be modified while in flight. One syscall, zero copies. The
// destination must be a pipe, per the real syscall's contract.
func (p *Proc) Vmsplice(fd int, b []byte) (int, error) {
	if err := p.fault("vmsplice"); err != nil {
		return 0, err
	}
	f, err := p.lookup(fd)
	if err != nil {
		return 0, err
	}
	if _, ok := f.(*pipeEnd); !ok {
		return 0, fmt.Errorf("vmsplice fd %d: %w", fd, ErrNotSupported)
	}
	p.acct.Syscall()
	// The ref run rides the pooled scratch (the pipe copies the value);
	// only the extent's one header — which lives until its last slice
	// drains — is allocated, inside AppendGift.
	sp := refScratch.Get().(*[]pagebuf.Ref)
	refs := pagebuf.AppendGift((*sp)[:0], b)
	werr := f.writeRefs(refs)
	putScratch(sp, refs)
	if werr != nil {
		return 0, fmt.Errorf("vmsplice fd %d: %w", fd, werr)
	}
	return len(b), nil
}

// Splice moves up to n bytes of page references from one file's buffer to
// another's without copying, modeling splice(2). One of the two descriptors
// must be a pipe, per the real syscall's contract. One syscall, zero copies.
// It returns the number of bytes moved (possibly short, like the syscall).
func (p *Proc) Splice(infd, outfd int, n int) (int, error) {
	if err := p.fault("splice"); err != nil {
		return 0, err
	}
	in, err := p.lookup(infd)
	if err != nil {
		return 0, err
	}
	out, err := p.lookup(outfd)
	if err != nil {
		return 0, err
	}
	_, inPipe := in.(*pipeEnd)
	_, outPipe := out.(*pipeEnd)
	if !inPipe && !outPipe {
		return 0, fmt.Errorf("splice fd %d->%d: %w", infd, outfd, ErrNotSupported)
	}
	if n <= 0 {
		return 0, fmt.Errorf("splice: n=%d: %w", n, ErrInvalid)
	}
	p.acct.Syscall()
	sp := refScratch.Get().(*[]pagebuf.Ref)
	refs, err := in.readRefs((*sp)[:0], n)
	moved := pagebuf.TotalLen(refs)
	if err == nil {
		if err = out.writeRefs(refs); err != nil {
			err = fmt.Errorf("splice fd %d->%d: %w", infd, outfd, err)
		}
	}
	putScratch(sp, refs)
	return moved, err
}

// ReadRefs dequeues page references directly (the receive half of the data
// hose: the shim takes pages from the kernel and writes them straight into
// the target VM's linear memory). One syscall, zero copies here — the copy
// into linear memory happens, and is charged, at the ABI layer.
func (p *Proc) ReadRefs(fd int, max int) ([]pagebuf.Ref, error) {
	if err := p.fault("readrefs"); err != nil {
		return nil, err
	}
	f, err := p.lookup(fd)
	if err != nil {
		return nil, err
	}
	p.acct.Syscall()
	return f.readRefs(nil, max)
}

// Pipe creates a pipe and returns (readFD, writeFD), as pipe(2) does.
func (p *Proc) Pipe() (int, int) {
	return p.PipeSized(DefaultPipeCap)
}

// PipeSized creates a pipe with an explicit capacity, modeling
// fcntl(F_SETPIPE_SZ). Roadrunner's shim enlarges its data-hose pipes the
// same way a real implementation would.
func (p *Proc) PipeSized(capBytes int) (int, int) {
	p.acct.Syscall()
	pi := newPipe(capBytes)
	rfd := p.install(&pipeEnd{pipe: pi, readable: true})
	wfd := p.install(&pipeEnd{pipe: pi, writable: true})
	return rfd, wfd
}

// SocketPair creates a connected pair of Unix-domain stream sockets inside
// this kernel and returns one FD in each of the two processes, modeling the
// socketpair(2)-style IPC channel the kernel-space mode uses (§5). The pair
// is unsized: a Write stages its whole payload before the reader sees it.
func SocketPair(a, b *Proc) (int, int, error) {
	return SocketPairSized(a, b, 0)
}

// SocketPairSized is SocketPair with an SO_SNDBUF of sndbuf bytes on both
// ends (the PipeSized of sockets; still one establishment syscall): a Write
// never has more than sndbuf copied bytes staged in kernel pages ahead of
// the reader. Only copied bytes are charged — references moved in by Splice
// or Tee are lent pages and queue without waiting. sndbuf <= 0 leaves the
// pair unsized.
func SocketPairSized(a, b *Proc, sndbuf int) (int, int, error) {
	if a.k != b.k {
		return 0, 0, fmt.Errorf("socketpair across kernels %q and %q: %w", a.k.name, b.k.name, ErrInvalid)
	}
	a.acct.Syscall()
	c1, c2 := newConnPair(sndbuf)
	return a.install(c1), b.install(c2), nil
}

// Connect creates a connected stream-socket pair between two processes that
// may live on different kernels, modeling a TCP connection. Wire time is not
// simulated here — the caller attributes it from the netsim link between the
// two nodes. The 3-way handshake is represented by one syscall on each side.
func Connect(client, server *Proc) (int, int) {
	client.acct.Syscall()
	server.acct.Syscall()
	c1, c2 := newConnPair(0)
	return client.install(c1), server.install(c2)
}

// Tee duplicates up to n queued bytes from one pipe into a file without
// consuming them, modeling tee(2): page references are retained and shared,
// no payload bytes are copied. The input must be a pipe read end. Used by
// the zero-copy multicast extension (one payload fanned out to many targets
// from a single data hose).
func (p *Proc) Tee(infd, outfd int, n int) (int, error) {
	if err := p.fault("tee"); err != nil {
		return 0, err
	}
	in, err := p.lookup(infd)
	if err != nil {
		return 0, err
	}
	out, err := p.lookup(outfd)
	if err != nil {
		return 0, err
	}
	pe, ok := in.(*pipeEnd)
	if !ok || !pe.readable {
		return 0, fmt.Errorf("tee fd %d: %w", infd, ErrNotSupported)
	}
	if n <= 0 {
		return 0, fmt.Errorf("tee: n=%d: %w", n, ErrInvalid)
	}
	p.acct.Syscall()
	sp := refScratch.Get().(*[]pagebuf.Ref)
	refs, err := pe.pipe.ring.Clone((*sp)[:0], n)
	cloned := pagebuf.TotalLen(refs)
	if err == nil {
		if err = out.writeRefs(refs); err != nil {
			err = fmt.Errorf("tee fd %d->%d: %w", infd, outfd, err)
		}
	}
	putScratch(sp, refs)
	return cloned, err
}
