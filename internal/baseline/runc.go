package baseline

import (
	"bufio"
	"fmt"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/metrics"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/minihttp"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/serial"
)

// RunCFunction is a native container function: the paper's upper performance
// bound (§6.1). It executes at host speed inside an OCI sandbox (a simulated
// process with cgroup-style accounting) and exchanges data over HTTP with
// the internal/serial codec.
type RunCFunction struct {
	name      string
	proc      *kernel.Proc
	acct      *metrics.Account
	now       func() time.Time
	coldStart time.Duration
	output    []byte
}

// NewRunCFunction provisions a container function on the given kernel. Cold
// start combines the modeled image pull/extract + RunC provisioning with the
// (measured) process setup. now may be nil (time.Now).
func NewRunCFunction(name string, k *kernel.Kernel, imageBytes int64, now func() time.Time) *RunCFunction {
	if now == nil {
		now = time.Now
	}
	sw := metrics.NewStopwatch(now)
	acct := &metrics.Account{}
	proc := k.NewProc(name, acct)
	f := &RunCFunction{name: name, proc: proc, acct: acct, now: now}
	f.coldStart = PullTime(imageBytes) + RunCInitTime + sw.Lap()
	return f
}

// Name returns the function name.
func (f *RunCFunction) Name() string { return f.name }

// Account returns the sandbox resource account.
func (f *RunCFunction) Account() *metrics.Account { return f.acct }

// Proc exposes the sandbox process.
func (f *RunCFunction) Proc() *kernel.Proc { return f.proc }

// ColdStart reports sandbox provisioning time (modeled pull + measured
// setup).
func (f *RunCFunction) ColdStart() time.Duration { return f.coldStart }

// Close tears the sandbox down.
func (f *RunCFunction) Close() { f.proc.CloseAll() }

// Produce generates the same deterministic payload the Wasm guests produce,
// at native speed, and tracks its memory.
func (f *RunCFunction) Produce(n int) {
	sw := metrics.NewStopwatch(f.now)
	f.output = guest.ReferenceProduce(n)
	f.acct.Allocate(int64(n))
	f.acct.CPU(metrics.User, sw.Lap())
}

// Output returns the function's current payload.
func (f *RunCFunction) Output() []byte { return f.output }

// SetOutput installs a received payload as the next hop's input.
func (f *RunCFunction) SetOutput(b []byte) { f.output = b }

// Checksum computes the shared reference digest at native speed.
func (f *RunCFunction) Checksum(data []byte) uint64 {
	sw := metrics.NewStopwatch(f.now)
	h := guest.ReferenceChecksum(data)
	f.acct.CPU(metrics.User, sw.Lap())
	return h
}

// Hello is the trivial no-I/O workload of Fig. 2a.
func (f *RunCFunction) Hello() int {
	sw := metrics.NewStopwatch(f.now)
	v := 42
	f.acct.CPU(metrics.User, sw.Lap())
	return v
}

// ResizeHalf is the native-speed counterpart of the guest image kernel.
func (f *RunCFunction) ResizeHalf(src []byte, w, h int) []byte {
	sw := metrics.NewStopwatch(f.now)
	out := guest.ReferenceResizeHalf(src, w, h)
	f.acct.CPU(metrics.User, sw.Lap())
	return out
}

// Transfer moves the source's output to dst over HTTP with serialization —
// the standard container data path of Fig. 1a. The returned report
// decomposes latency exactly as the Roadrunner paths do so the experiment
// figures can compare them component by component.
func (f *RunCFunction) Transfer(dst *RunCFunction, env TransferEnv) ([]byte, metrics.TransferReport, error) {
	beforeSrc := f.acct.Snapshot()
	beforeDst := dst.acct.Snapshot()

	// Serialize (source, user space).
	swSer := metrics.NewStopwatch(f.now)
	records := []serial.Record{{Key: []byte("payload"), Value: f.output}}
	body := serial.Encode(records)
	f.acct.Copy(metrics.User, len(body))
	f.acct.Allocate(int64(len(body)))
	serT := swSer.Lap()
	f.acct.CPU(metrics.User, serT)

	// HTTP POST through the kernel.
	swT := metrics.NewStopwatch(f.now)
	cfd, sfd := kernel.Connect(f.proc, dst.proc)
	// Failures past the connect close both socket ends before surfacing, so
	// an aborted baseline transfer strands no descriptor in either container.
	fail := func(err error) ([]byte, metrics.TransferReport, error) {
		_ = f.proc.Close(cfd)
		_ = dst.proc.Close(sfd)
		return nil, metrics.TransferReport{}, err
	}
	srcStream := kernel.NewStream(f.proc, cfd)
	if err := minihttp.WriteRequest(srcStream, &minihttp.Request{
		Method: "POST",
		Path:   "/invoke/" + dst.name,
		Header: map[string]string{"Content-Type": "application/rrs1"},
		Body:   body,
	}); err != nil {
		return fail(fmt.Errorf("runc http send: %w", err))
	}
	sendT := swT.Lap()
	f.acct.CPU(metrics.Kernel, sendT)

	// Receive + parse on the target.
	swR := metrics.NewStopwatch(dst.now)
	dstStream := kernel.NewStream(dst.proc, sfd)
	req, err := minihttp.ReadRequest(bufio.NewReaderSize(dstStream, 64<<10))
	if err != nil {
		return fail(fmt.Errorf("runc http recv: %w", err))
	}
	dst.acct.Allocate(int64(len(req.Body)))
	recvT := swR.Lap()
	dst.acct.CPU(metrics.Kernel, recvT)

	// Deserialize (target, user space).
	swDe := metrics.NewStopwatch(dst.now)
	decoded, err := serial.Decode(req.Body)
	if err != nil {
		return fail(fmt.Errorf("runc decode: %w", err))
	}
	dst.acct.Copy(metrics.User, len(decoded[0].Value))
	deT := swDe.Lap()
	dst.acct.CPU(metrics.User, deT)

	_ = f.proc.Close(cfd)
	_ = dst.proc.Close(sfd)
	f.acct.Allocate(int64(-len(body)))

	usage := f.acct.Snapshot().Sub(beforeSrc).Add(dst.acct.Snapshot().Sub(beforeDst))
	transfer := sendT + recvT + f.proc.Kernel().SyscallTime(usage.Syscalls)
	report := metrics.TransferReport{
		Bytes: int64(len(body)),
		Breakdown: metrics.Breakdown{
			Serialization: serT + deT,
			Transfer:      transfer,
			Network:       env.networkTime(int64(len(body))),
		},
		Usage: usage,
		Mode:  "runc-http",
	}
	return decoded[0].Value, report, nil
}
