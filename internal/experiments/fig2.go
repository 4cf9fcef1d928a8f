package experiments

import (
	"fmt"
	"time"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/baseline"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/guest"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/netsim"
)

// containerExecOverhead models per-invocation container process setup
// (exec + runtime hooks) that Wasm invocations do not pay.
const containerExecOverhead = 2 * time.Millisecond

// Fig2a regenerates the motivation measurement of Fig. 2a: cold start and
// execution latency for a no-I/O function ("Hello World") and a WASI-bound
// function ("Resize Image"), on containers vs Wasm, with artifact sizes.
//
// Point mapping: Latency = cold start, Breakdown.Compute = execution time,
// RAMMB = image/binary size in MB.
func Fig2a(opts Options) (*Result, error) {
	res := &Result{
		ID:     "fig2a",
		Mode:   "coldstart",
		Title:  "Cold start and execution latency, container vs Wasm",
		XLabel: "n/a",
		Notes: []string{
			"mapping: latency column = cold start; see notes for execution time",
		},
	}
	k := kernel.New("node")

	// Containers.
	cont := baseline.NewRunCFunction("cont", k, baseline.ContainerImageBytes, nil)
	defer cont.Close()
	// Wasm.
	wf, err := baseline.NewWasmEdgeFunction("wasm", k, guest.Module(), nil)
	if err != nil {
		return nil, err
	}
	defer wf.Close()

	// Hello World executions.
	swC := time.Now()
	cont.Hello()
	contHello := time.Since(swC) + containerExecOverhead
	swW := time.Now()
	if _, err := wf.Hello(); err != nil {
		return nil, err
	}
	wasmHello := time.Since(swW)

	// Resize Image executions (512x512 grayscale read through the host
	// filesystem / WASI respectively).
	const w, h = 512, 512
	img := guest.ReferenceProduce(w * h)
	swC = time.Now()
	cont.ResizeHalf(img, w, h)
	contResize := time.Since(swC) + containerExecOverhead
	wasmResize, err := wf.ResizeHalf(img, w, h)
	if err != nil {
		return nil, err
	}

	add := func(system string, cold, exec time.Duration, artifactBytes int64) {
		p := Point{System: system, Latency: cold, RAMMB: float64(artifactBytes) / MB}
		p.Breakdown.Compute = exec
		res.Points = append(res.Points, p)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: cold=%.4gs exec=%.6gs artifact=%.2fMB",
			system, cold.Seconds(), exec.Seconds(), float64(artifactBytes)/MB))
	}
	add("Cont (Hello World)", cont.ColdStart(), contHello, baseline.ContainerImageBytes)
	add("Wasm (Hello World)", wf.ColdStart(), wasmHello, baseline.WasmBinaryBytes)
	add("Cont (Resize Image)", cont.ColdStart(), contResize, baseline.ContainerImageBytes)
	add("Wasm (Resize Image)", wf.ColdStart(), wasmResize, baseline.WasmBinaryBytes)
	return res, nil
}

// Fig2b regenerates the normalized I/O breakdown of Fig. 2b: the share of
// transfer vs serialization in an HTTP exchange, containers vs Wasm, across
// payload sizes (paper: 1, 60 and 100 MB).
func Fig2b(opts Options) (*Result, error) {
	opts = opts.withDefaults()
	sizes := fig2bSizes(opts.SizesMB)
	res := &Result{
		ID:     "fig2b",
		Mode:   "intra-node",
		Title:  "Normalized transfer vs serialization share, container vs Wasm",
		XLabel: "size(MB)",
	}
	for _, sizeMB := range sizes {
		n := sizeMB * MB

		// Containers.
		{
			k := kernel.New("node")
			src := baseline.NewRunCFunction("a", k, baseline.ContainerImageBytes, nil)
			dst := baseline.NewRunCFunction("b", k, baseline.ContainerImageBytes, nil)
			src.Produce(n)
			_, rep, err := src.Transfer(dst, baseline.TransferEnv{Link: netsim.DefaultLoopback(), Flows: 1})
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, pointFrom("Cont", float64(sizeMB), rep))
			res.Notes = append(res.Notes, normNote("Cont", sizeMB, rep.Breakdown.Serialization, rep.Latency()))
			src.Close()
			dst.Close()
		}

		// Wasm.
		{
			k := kernel.New("node")
			src, err := baseline.NewWasmEdgeFunction("a", k, guest.Module(), nil)
			if err != nil {
				return nil, err
			}
			dst, err := baseline.NewWasmEdgeFunction("b", k, guest.Module(), nil)
			if err != nil {
				return nil, err
			}
			if err := src.Produce(n); err != nil {
				return nil, err
			}
			_, _, rep, err := src.Transfer(dst, baseline.TransferEnv{Link: netsim.DefaultLoopback(), Flows: 1})
			if err != nil {
				return nil, err
			}
			res.Points = append(res.Points, pointFrom("Wasm", float64(sizeMB), rep))
			res.Notes = append(res.Notes, normNote("Wasm", sizeMB, rep.Breakdown.Serialization, rep.Latency()))
			src.Close()
			dst.Close()
		}
	}
	return res, nil
}

func normNote(system string, sizeMB int, ser, total time.Duration) string {
	share := 0.0
	if total > 0 {
		share = float64(ser) / float64(total) * 100
	}
	return fmt.Sprintf("%s %dMB: serialization=%.1f%% transfer=%.1f%%", system, sizeMB, share, 100-share)
}

// fig2bSizes picks up to three representative sizes from the sweep axis.
func fig2bSizes(sizes []int) []int {
	switch len(sizes) {
	case 0:
		return []int{1, 4, 16}
	case 1, 2, 3:
		return sizes
	default:
		return []int{sizes[0], sizes[len(sizes)/2], sizes[len(sizes)-1]}
	}
}
