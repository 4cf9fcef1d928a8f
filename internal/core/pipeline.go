// The staged data-plane pipeline. Every cross-sandbox transfer (kernel,
// network, multicast) is the same skeleton — take the pair locks, acquire
// each leg's channel, push pages in (egress), drain pages out into each
// target's linear memory (ingress), join the legs, assemble usage and
// breakdown — and this file owns that skeleton, runPipeline. A transfer is
// one egress and N legs: a unicast is the one-leg case, and a multicast
// (multicast.go) is the network egress whose hose pages are tee'd to N
// legs' channels instead of spliced into one. The per-mode files
// (transfer.go, network.go) contribute only the two stage bodies, as
// stateless stageOps implementations.
//
// Concurrency model (DESIGN.md §3): each VM lock is scoped to its stage —
// every stage body takes its own VM lock for its whole body — so a chain's
// interior VMs are never locked while the other endpoint works:
//
//   - the source VM lock is held only while the source's pages enter the
//     channel (locate/view/vmsplice-or-write). The payload stays valid past
//     unlock because the channel holds page references — pool pages own
//     their bytes, and gifted (vmspliced) pages alias a region of linear
//     memory that nothing rewrites while the transfer is in flight: the
//     guest frees exactly the block a release names, so no other region of
//     the source VM is ever allocated over it;
//   - the target VM lock is held only while the channel drains into the
//     target's linear memory (allocate/splice/copy);
//   - the two stages run on separate goroutines, so the target drains chunk
//     k while the source vmsplices chunk k+1. Breakdown.Overlap records the
//     window both stages ran concurrently, making the reported latency the
//     pipeline's critical path rather than the sum of sequential laps;
//   - the caller's goroutine, done with a zero-copy egress in microseconds,
//     does not park at the join: it is the hose's second depositor. The
//     ingress stage still issues every syscall and holds the target VM lock
//     for the whole drain, but publishes every hose chunk as pieces both
//     goroutines claim from one slot (awaitIngress, drainHose), so the one
//     payload copy of the network path runs on two cores.
//
// Both copy-bearing paths stream: the hose moves a payload chunk by chunk
// through a bounded pipe, and the kernel path's socketpair carries a send
// window (channels.go, kernelSendWindow): its one write queues at most the
// window ahead of the receive, and from the moment the receive is there the
// two calls relay the rest — each stage's goroutine moves whole segments
// source → its own kernel block → target on its own core — rather than
// staging the payload, or handing it slab by slab, between them. A payload
// of more than one segment gives the receive the caller's core when the
// announce dispatches it, so the receive is there before the write starts
// (kernelOps.egress). So the egress's goroutine writes into the target's
// linear memory and the ingress's reads the source's, each only while the
// other stage's call is in progress, i.e. under the VM lock that stage
// holds: the egress keeps the source lock until Write returns, the ingress
// the target lock until ReadFull returns. Either way an egress can be
// blocked on a channel the ingress is supposed to drain, so a failing
// ingress destroys the channel before it reports, and the error join in
// runPipeline reports the error of the stage that failed first — the
// ingress's cause, not the ring-closed error the unblocked egress sees.
//
// The hose is the shim's, not the channel's (Shim.hoseR/W): a network
// egress or tee pass empties it chunk by chunk under the source VM lock, a
// network ingress under the target's, so it is empty whenever the VM lock
// is free and one pipe per shim serves every pair.
//
// Serialization that must remain is provided by the pair lock
// (Shim.pairLock): transfers of one ordered (source shim, target shim)
// pair share one cached channel and therefore execute one at a time. A
// transfer takes the pair lock of every distinct target shim of its legs,
// in ascending shim creation order (lockPairs), which keeps overlapping
// multicasts from one source deadlock-free. Transfers of different pairs —
// including pairs that share a VM — interleave stage by stage, which is
// what frees a chain's interior VMs between their stages. VM locks never
// nest: each stage takes its own VM lock exactly once, and no goroutine
// ever holds two.
//
// Memory model (DESIGN.md §10): the steady-state unicast path allocates
// nothing. Per-leg state — the result and deposit channels, both stages'
// metrics, the spec itself, and the one-leg slice a unicast runs as — lives
// in a pooled pipelineState recycled through a sync.Pool, and the ingress
// stage runs on a parked stage worker fed through an unbuffered queue rather
// than a freshly spawned goroutine (a `go` statement with arguments
// allocates its closure). The recycled channels are never closed, so the
// same channel instances carry the next transfer's messages.
package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/pagebuf"
)

// CtxErr reports a context's cancellation non-blockingly, treating a nil
// context as never cancelled. The data plane polls it at its cancellation
// points: pipeline entry, stage entry, and every chunk boundary of a stage
// loop — a cancelled transfer aborts through the ordinary error path, which
// poisons (destroys) the pair's channel, drains any stranded pages back to
// the pool and closes the channel's descriptors, so cancellation conserves
// the same FD and page baselines every other transfer failure does.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// PipelineGates carries test instrumentation for the staged pipeline. All
// fields are optional; production callers leave the struct nil.
type PipelineGates struct {
	// BeforeIngress runs in the target-stage goroutine, dispatched by the
	// source's announcement of its output region, before the target VM lock
	// is taken. Blocking here holds the transfer in its "wire in flight"
	// state — payload queued in the channel, neither VM lock held — which
	// is how tests prove an interior VM stays free mid-transfer.
	BeforeIngress func()
	// claimed, when a test sets it, runs in whichever depositor of a
	// striped drain takes a piece of n bytes off the deposit slot —
	// byCaller tells which — right after it took it and before it copies
	// it.
	claimed func(byCaller bool, n int)
	// uncached, when a test sets it, gives every leg an ephemeral channel,
	// established and torn down around the transfer: the paper's per-call
	// Algorithm 1, the reference syscall trace the cached path is checked
	// against.
	uncached bool
}

// stageMetrics accumulates one stage's breakdown contributions.
type stageMetrics struct {
	wasmIO   time.Duration
	transfer time.Duration
}

// activity is the stage's total measured work.
func (m stageMetrics) activity() time.Duration {
	return m.wasmIO + m.transfer
}

// modeledOverlap is the critical-path credit of a k-chunk staged transfer.
// The stages form a chunk pipeline — egress CPU → wire → ingress CPU, each
// chunk's ingress dependent on its own egress only — so with per-chunk
// stage costs e, w, i the critical path is e + w + i + (k-1)·max(e,w,i),
// against a sequential sum of k·(e+w+i); the difference, restated over the
// measured stage totals E/W/I, is (k-1)/k · (E+W+I − max(E,W,I)).
//
// The overlap is modeled, not wall-measured, for the same reason wire time
// and syscall mode-switches are modeled (DESIGN.md §1): in the paper's
// testbed the two shims are separate processes on separate cores genuinely
// executing Algorithm 1 concurrently, which a single-process simulation —
// possibly pinned to one core — cannot physically reproduce. The stages DO
// run on separate goroutines (the locking and streaming are real); the
// model attributes the wall-clock those goroutines would save with real
// parallelism. One chunk means no pipelining, hence zero overlap.
func modeledOverlap(k int, e, w, i time.Duration) time.Duration {
	if k <= 1 {
		return 0
	}
	longest := max(e, max(w, i))
	return (e + w + i - longest) * time.Duration(k-1) / time.Duration(k)
}

// stageOps is a mode's pair of stage bodies, run by runPipeline.
// Implementations are stateless zero-size types (kernelOps, and networkOps,
// whose stages every multicast runs too): everything a stage needs rides in
// the pipelineState, so storing an implementation in a spec allocates
// nothing.
type stageOps interface {
	// egress takes the source VM lock for its whole body: resolve the
	// output region, announce it to every leg via st.announce (which
	// dispatches the leg's target stage), push the payload into every
	// leg's channel. It announces exactly once per leg, before the first
	// byte moves — unless it fails first, touching nothing. Its metrics go
	// to legs[0].em.
	egress(legs []*pipelineState) error
	// ingress takes the target VM lock for its whole body: drain st.ch into
	// the target's linear memory and return the delivered region.
	ingress(st *pipelineState, out OutputRef) (InboundRef, error)
}

// pipelineSpec describes one leg of a staged cross-sandbox transfer. The
// engine owns locking, channel lifecycle, stage scheduling and report
// assembly; ops carries the mode's stage bodies, and the remaining fields
// are what every mode shares — the modes have no knobs of their own (a
// plain value struct keeps the spec free of per-call closures).
type pipelineSpec struct {
	mode     string // report mode tag
	kind     chanKind
	ctx      context.Context // cancellation; nil means never cancelled
	gates    *PipelineGates
	src, dst *Function
	link     *netsim.Link // modeled wire; nil = no network time
	flows    int          // flows sharing link: a cast's cross-node legs
	// chunkBytes is the channel chunk size the payload crosses in — the
	// pipeline depth for overlap attribution is ceil(len/chunkBytes).
	// Zero means 1 chunk: no overlap is attributed. The copy path leaves
	// it zero — its one write and one receive do interleave through the
	// send window, but the modeled credit is not claimed for it yet
	// (DESIGN.md §3), so its modeled latency stays the sum of the laps.
	chunkBytes int
	sourceRef  *OutputRef // pinned source region (see UserOptions.SourceRef)
	ops        stageOps   // set by runPipeline; runIngress runs its ingress
}

// striped reports whether a payload of out.Len bytes is drained by two
// depositors: a hose transfer of more than one piece (min(depositPiece,
// chunkBytes)). The ingress publishes pieces and the caller serves them
// exactly when this holds; anything smaller keeps the plain receive.
func (sp *pipelineSpec) striped(out OutputRef) bool {
	return sp.chunkBytes > 0 && int(out.Len) > min(depositPiece, sp.chunkBytes)
}

// chunks is the transfer's pipeline depth for a payload of out.Len bytes.
func (sp *pipelineSpec) chunks(out OutputRef) int {
	if sp.chunkBytes <= 0 {
		return 1
	}
	return hoseChunks(out, sp.chunkBytes)
}

// ingressResult is the ingress stage's outcome; its metrics are in the
// state's im.
type ingressResult struct {
	ref InboundRef
	err error
}

// depositJob is one piece of a hose chunk the ingress stage publishes: a
// reference to at most depositPiece bytes of the chunk and the window of the
// target's linear memory they belong in. It travels by value through the
// pooled state's deposit slot, so publishing a piece allocates nothing.
type depositJob struct {
	dst []byte
	ref pagebuf.Ref
}

// pipelineState is the per-leg scratch: the spec, the acquired channel and
// its setup time, the target's usage snapshot, both stages' metrics (the
// egress's in the first leg's) and the two rendezvous channels. States are
// recycled through statePool, so a warm transfer allocates none of it; the
// channels are never closed and the result channel carries exactly one
// message per dispatched ingress, which is what makes recycling safe — after
// the caller receives the ingress result it is empty and no goroutine
// retains the state. The deposit slot is empty by then too: the ingress
// stage settles every piece it published before it reports (joinDeposits).
type pipelineState struct {
	spec      pipelineSpec
	ch        *channel
	setup     time.Duration // ch's establishment time; zero on a cache hit
	before    metrics.Usage // the target shim's account at entry (its first leg)
	em, im    stageMetrics
	out       OutputRef
	announced bool // an ingress stage was dispatched for out
	// ingressFailed is set by the ingress stage before it destroys the
	// channel, so the egress's join can tell a symptom from a cause.
	ingressFailed atomic.Bool
	ingressCh     chan ingressResult
	// depositCh is the slot the ingress stage publishes pieces into; both
	// depositors claim them (awaitIngress, joinDeposits). It holds one
	// default hose of pieces. deposits counts the published pieces not yet
	// copied.
	depositCh chan depositJob
	deposits  sync.WaitGroup
	// self holds the state itself: the one-leg slice a unicast runs as,
	// backed by the state so that building it allocates nothing.
	self [1]*pipelineState
}

var statePool = sync.Pool{New: func() any {
	st := &pipelineState{
		ingressCh: make(chan ingressResult, 1),
		depositCh: make(chan depositJob, defaultHoseBytes/depositPiece),
	}
	st.self[0] = st
	return st
}}

// putPipelineState clears the state's references (so a pooled state pins no
// platform graph) and recycles it.
func putPipelineState(st *pipelineState) {
	st.spec = pipelineSpec{}
	st.ch = nil
	st.setup, st.before = 0, metrics.Usage{}
	st.em, st.im = stageMetrics{}, stageMetrics{}
	st.out = OutputRef{}
	st.announced = false
	st.ingressFailed.Store(false)
	statePool.Put(st)
}

// announce records the source's output region and dispatches the ingress
// stage for it: the target stage starts knowing the payload size, so it
// never waits for it, and a source that fails before announcing has started
// nothing. Stage bodies call it exactly once, before the first payload byte
// moves.
func (st *pipelineState) announce(o OutputRef) {
	st.out = o
	st.announced = true
	dispatchIngress(st)
}

// ingressQ hands states to parked stage workers. It is unbuffered on
// purpose: a send succeeds only when a worker is already parked on the
// other side, and dispatchIngress grows the worker set otherwise.
var ingressQ = make(chan *pipelineState)

// dispatchIngress schedules st's ingress stage: on a parked stage worker
// when one is available (the warm path — no goroutine spawn, no
// allocation), else on a new worker that parks afterwards. Either way the
// worker is made runnable on the dispatching thread's P, next in line for
// it: a source that yields right after announcing hands the ingress its core
// (kernelOps.egress). Workers live for the process and their population is
// bounded by the peak number of concurrent transfers.
func dispatchIngress(st *pipelineState) {
	select {
	case ingressQ <- st:
	default:
		go ingressWorker(st)
	}
}

func ingressWorker(st *pipelineState) {
	for {
		st.runIngress()
		// The state was handed back through st.ingressCh; it must not be
		// touched again — park for the next transfer's state.
		st = <-ingressQ
	}
}

// runIngress is the target stage for the announced output: the ingress
// body drains under the target VM lock alone. Any failure destroys the
// channel before it is reported: that releases the queued pages back to the
// pool and unblocks an egress still writing into a full send window, which
// nothing would drain any more. It sends exactly one result on st.ingressCh
// and touches st never again afterwards.
func (st *pipelineState) runIngress() {
	sp := &st.spec
	if sp.gates != nil && sp.gates.BeforeIngress != nil {
		sp.gates.BeforeIngress()
	}
	// Stage-boundary cancellation point: the payload is on the wire
	// (queued in the channel), the target VM not yet touched.
	err := CtxErr(sp.ctx)
	var ref InboundRef
	if err == nil {
		ref, err = sp.ops.ingress(st, st.out)
	}
	if err != nil {
		st.ingressFailed.Store(true)
		st.ch.destroy()
	}
	st.ingressCh <- ingressResult{ref: ref, err: err}
}

// awaitIngress is the caller's side of the join. Instead of parking until
// the ingress result arrives, the caller claims the pieces the ingress stage
// publishes (drainHose) and copies each into the target's linear memory
// under the target VM lock the ingress stage holds for the whole drain,
// charged to the target shim's account like the ingress's own deposits. The
// result is sent only after every published piece is settled, so the slot
// is empty when it arrives. A transfer that publishes nothing — the copy
// paths, a payload of one piece — parks in a plain receive, which is
// cheaper than a select and is all the small-payload fast path can afford.
func (st *pipelineState) awaitIngress() ingressResult {
	if !st.spec.striped(st.out) {
		return <-st.ingressCh
	}
	s := st.spec.dst.shim
	g := st.spec.gates
	for {
		select {
		case job := <-st.depositCh:
			if g != nil && g.claimed != nil {
				g.claimed(true, len(job.dst))
			}
			sw := metrics.NewStopwatch(s.now)
			s.depositOne(job)
			s.acct.CPU(metrics.User, sw.Lap())
			st.deposits.Done()
		case ires := <-st.ingressCh:
			return ires
		}
	}
}

// sourceView is the prologue every egress shares, under the source VM lock
// its caller holds: resolve the output region (Algorithm 1 lines 1-4) and
// take its zero-copy view (read_memory_host), charged as Wasm IO to the
// egress, then announce the region to every leg, which starts the legs
// draining while the payload still flows. A failure before the announce
// dispatched no leg.
func sourceView(legs []*pipelineState) ([]byte, error) {
	sp := &legs[0].spec
	f := sp.src
	sw := metrics.NewStopwatch(f.shim.now)
	out, err := f.sourceOutput(sp.sourceRef)
	if err != nil {
		return nil, err
	}
	view, err := f.view.ReadView(out.Ptr, out.Len)
	if err != nil {
		return nil, err
	}
	ioT := sw.Lap()
	f.shim.acct.CPU(metrics.User, ioT)
	legs[0].em.wasmIO += ioT
	for _, st := range legs {
		st.announce(out)
	}
	return view, nil
}

// sourceOutput resolves the region a transfer's source stage reads: the
// guest's current output (locate_memory_region), or — when the caller pins
// an explicit region, as streaming chains do — set_output followed by
// locate, atomically under the VM lock the caller holds. The atomicity is
// what keeps concurrent chains over shared interior functions linearizable:
// no other transfer can retarget the function's output between the two
// calls. CPU is charged by the surrounding stage stopwatch.
func (f *Function) sourceOutput(pinned *OutputRef) (OutputRef, error) {
	if pinned != nil {
		if _, err := f.inst.Call(guest.ExportSetOutput, uint64(pinned.Ptr), uint64(pinned.Len)); err != nil {
			return OutputRef{}, err
		}
	}
	return f.locateQuiet()
}

// unicast runs one transfer with the stage pair ops: spec's leg is the
// pooled state's, passed to runPipeline as the one-leg slice the state
// backs, so a warm unicast allocates nothing.
func unicast(ops stageOps, spec *pipelineSpec) (InboundRef, metrics.TransferReport, error) {
	st := statePool.Get().(*pipelineState)
	st.spec = *spec
	var ref [1]InboundRef
	var report [1]metrics.TransferReport
	_, err := runPipeline(ops, st.self[:], ref[:], report[:])
	putPipelineState(st)
	if err != nil {
		return InboundRef{}, metrics.TransferReport{}, err
	}
	return ref[0], report[0], nil
}

// runPipeline executes a staged transfer from one source to the targets of
// legs — each a pooled state with a complete spec, all of one source — with
// the stage pair ops, and fills refs and reports, one per leg. Stage
// scheduling:
//
//	caller goroutine:  pair locks → channels → [src lock: egress … announce … push] → deposit claimed pieces → join legs in order
//	stage worker per leg:                                  └→ [dst lock: ingress, publishing pieces]
//
// Every leg has a channel of its own: a target shim's first leg the pair's
// cached one, any further leg into the same shim an ephemeral one, which
// would otherwise collide with it. The egress's announce dispatches the
// legs; an egress that fails before announcing dispatched none, never
// touched a channel, and returns its own error with the channels released
// healthy. Once legs run, any failure destroys every channel, and the join
// reports the stage that failed first. On failure runPipeline hands back
// the legs that landed and returns the failed leg's index, or -1 for the
// source; the caller still owns and recycles the states. The pair locks
// are the only locks held across stages; VM locks never nest.
func runPipeline(ops stageOps, legs []*pipelineState, refs []InboundRef, reports []metrics.TransferReport) (int, error) {
	src := legs[0].spec.src.shim
	lockPairs(legs)
	defer unlockPairs(legs)
	// First cancellation point: a transfer cancelled while waiting on a
	// pair lock aborts before acquiring a channel or touching any VM.
	if err := CtxErr(legs[0].spec.ctx); err != nil {
		return -1, err
	}
	// Usage is snapshotted once per distinct target shim, on its first
	// leg, and reported with that leg, as the source's is with leg 0: a VM
	// holding two legs is counted once.
	beforeSrc := src.acct.Snapshot()
	for i, st := range legs {
		if firstLeg(legs, i) {
			st.before = st.spec.dst.shim.acct.Snapshot()
		}
	}
	for i, st := range legs {
		g := st.spec.gates
		ch, setup, err := acquireTransferChannel(src, st.spec.dst.shim, st.spec.kind, g != nil && g.uncached || !firstLeg(legs, i))
		if err != nil {
			releaseChannels(legs[:i], true)
			return i, err
		}
		st.ch, st.setup = ch, setup
		st.spec.ops = ops
	}

	// Source stage, inline; its announce dispatches every leg.
	eerr := ops.egress(legs)
	if !legs[0].announced {
		releaseChannels(legs, true)
		return -1, eerr
	}
	// A failing leg destroys its channel, which then fails the egress with
	// whatever symptom its next step meets (ring closed, bad descriptor,
	// broken pipe): a leg whose failure was flagged before the egress
	// failed has the cause.
	cause := -1
	if eerr != nil {
		for i, st := range legs {
			if st.ingressFailed.Load() {
				cause = i
				break
			}
		}
		// Legs may be blocked draining channels that will never fill;
		// poisoning the channels unblocks them. The release below destroys
		// them again — destroy is idempotent.
		for _, st := range legs {
			st.ch.destroy()
		}
	}
	// The join: without a source failure the first failed leg reports.
	err := eerr
	for i, st := range legs {
		ires := st.awaitIngress()
		refs[i] = ires.ref
		if ires.err != nil && (i == cause || eerr == nil && err == nil) {
			cause, err = i, ires.err
		}
	}
	if err != nil {
		releaseChannels(legs, false)
		return cause, releaseLanded(legs, refs, err)
	}
	// Tear down before the usage snapshot: the closes of ephemeral channels
	// are part of the transfer the reports account for.
	releaseChannels(legs, true)

	// The egress is shared across legs: each leg's report carries an equal
	// share of it as its egress stage, and the source's usage goes with the
	// first leg. With one leg this is the whole egress.
	em, n := legs[0].em, time.Duration(len(legs))
	share := stageMetrics{transfer: em.transfer / n, wasmIO: em.wasmIO / n}
	srcUsage := src.acct.Snapshot().Sub(beforeSrc)
	for i, st := range legs {
		var usage metrics.Usage
		if firstLeg(legs, i) {
			usage = st.spec.dst.shim.acct.Snapshot().Sub(st.before)
		}
		if i == 0 {
			usage = usage.Add(srcUsage)
		}
		reports[i] = assembleReport(&st.spec, st.out, st.setup, share, st.im, usage)
	}
	return -1, nil
}

// firstLeg reports whether legs[i] is the first of legs into its target
// shim.
func firstLeg(legs []*pipelineState, i int) bool {
	for _, st := range legs[:i] {
		if st.spec.dst.shim == legs[i].spec.dst.shim {
			return false
		}
	}
	return true
}

// lockPairs takes the pair lock of every distinct target shim of legs — of
// the leg's channel kind, so a multicast leg serializes with the unicast
// transfers of its pair — in ascending shim creation order (Shim.seq),
// which keeps overlapping multicasts from one source deadlock-free. It
// allocates nothing: each turn takes the lowest seq above the last one.
func lockPairs(legs []*pipelineState) {
	var last uint64
	for {
		var next *pipelineState
		for _, st := range legs {
			if s := st.spec.dst.shim; s.seq > last && (next == nil || s.seq < next.spec.dst.shim.seq) {
				next = st
			}
		}
		if next == nil {
			return
		}
		next.spec.src.shim.pairLock(next.spec.dst.shim, next.spec.kind).Lock()
		last = next.spec.dst.shim.seq
	}
}

// unlockPairs releases the pair locks lockPairs took.
func unlockPairs(legs []*pipelineState) {
	for i, st := range legs {
		if firstLeg(legs, i) {
			st.spec.src.shim.pairLock(st.spec.dst.shim, st.spec.kind).Unlock()
		}
	}
}

// releaseChannels ends every leg's use of its channel.
func releaseChannels(legs []*pipelineState, healthy bool) {
	for _, st := range legs {
		releaseTransferChannel(st.ch, healthy)
	}
}

// releaseLanded hands back the legs that landed before a transfer failed
// with err, so an aborted (e.g. cancelled) multicast doesn't strand regions
// in the fast targets' heaps; a failed leg's ref is zero, its ingress
// already rewound. Each release runs under its target's VM lock. It
// returns err.
func releaseLanded(legs []*pipelineState, refs []InboundRef, err error) error {
	for i, ref := range refs {
		if ref.Ptr != 0 {
			f := legs[i].spec.dst
			f.shim.mu.Lock()
			_ = f.view.Deallocate(ref.Ptr)
			f.shim.mu.Unlock()
		}
	}
	return err
}

// assembleReport folds both stages' measurements into the transfer report.
// Modeled syscall mode-switch time joins the Transfer component; Overlap is
// the modeled critical-path credit of the chunk pipeline. Nothing on the data
// plane serializes, so Serialization stays zero — only the baselines fill it.
func assembleReport(spec *pipelineSpec, out OutputRef, setup time.Duration, em, im stageMetrics, usage metrics.Usage) metrics.TransferReport {
	bd := metrics.Breakdown{
		Setup:    setup,
		Transfer: em.transfer + im.transfer + spec.src.shim.Kernel().SyscallTime(usage.Syscalls),
		WasmIO:   em.wasmIO + im.wasmIO,
	}
	if spec.link != nil {
		bd.Network = spec.link.TransferTime(int64(out.Len), spec.flows)
	}
	bd.Overlap = modeledOverlap(spec.chunks(out), em.activity(), bd.Network, im.activity())
	return metrics.TransferReport{
		Bytes:     int64(out.Len),
		Breakdown: bd,
		Usage:     usage,
		Mode:      spec.mode,
	}
}
