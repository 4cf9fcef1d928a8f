package main

import (
	"context"
	"fmt"
	"io"
	"time"
)

// runSmoke runs every workload once for 50 ms in this process, layer run
// included: a check that every metric is produced, not a measurement. It
// works in a -race build. Saturation is reported but does not fail a smoke
// run: 50 ms of an interpreter under the race detector says nothing about
// capacity.
func runSmoke(ctx context.Context, out io.Writer) (*result, error) {
	res := &result{Schema: schemaVersion, Env: currentEnv(options{seed: 1, roundSeconds: smokeSeconds}, 1), Workloads: map[string]*workloadResult{}}
	for _, w := range workloads {
		rr, err := runRound(ctx, roundSpec{w: w, seconds: smokeSeconds, seed: roundSeed(1, 0), begin: time.Now()})
		if err != nil {
			return nil, err
		}
		wr := aggregate(w, []*roundResult{rr})
		lr, err := runLayers(ctx, layerSpec{w: w, seconds: smokeSeconds, seed: 1, untracedP50: wr.Metrics["op_p50_us"].Value, budget: 2 * time.Millisecond})
		if err != nil {
			return nil, err
		}
		wr.Layers, wr.Budget = lr.Metrics, lr.Budget
		res.Workloads[w.name] = wr
		if wr.Failed > 0 {
			return res, fmt.Errorf("%s: %d of %d ops failed: %v", w.name, wr.Failed, wr.Attempted, wr.Failures)
		}
	}
	printResult(out, res, workloads)
	return res, nil
}
