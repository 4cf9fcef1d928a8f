package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// Verdicts of one (metric, workload) comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// checkFiles compares result file b against reference a, metric by metric,
// and fails if any pair is worse.
func checkFiles(out io.Writer, pathA, pathB string) error {
	a, err := readResult(pathA)
	if err != nil {
		return err
	}
	b, err := readResult(pathB)
	if err != nil {
		return err
	}
	if err := comparable(a.Env, b.Env); err != nil {
		return fmt.Errorf("%s and %s are not comparable: %w", pathA, pathB, err)
	}
	worse, unresolved := printCheck(out, a, b)
	fmt.Fprintf(out, "%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return fmt.Errorf("%d (metric, workload) pair(s) worse than the bound allows", worse)
	}
	return nil
}

// comparable refuses two results recorded on different machines or with a
// different run design: their medians differ for reasons no bound covers.
func comparable(a, b envBlock) error {
	var diffs []error
	diff := func(field string, x, y any) {
		if x != y {
			diffs = append(diffs, fmt.Errorf("%s differs: %v vs %v", field, x, y))
		}
	}
	diff("NumCPU", a.NumCPU, b.NumCPU)
	diff("GOMAXPROCS", a.GOMAXPROCS, b.GOMAXPROCS)
	diff("Go version", a.GoVersion, b.GoVersion)
	diff("ROUNDS", a.Rounds, b.Rounds)
	diff("ROUND_S", a.RoundSeconds, b.RoundSeconds)
	diff("seed", a.Seed, b.Seed)
	return errors.Join(diffs...)
}

// printCheck prints one row per (metric, workload) and counts the verdicts.
func printCheck(out io.Writer, a, b *result) (worse, unresolved int) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3]\tB median [q1, q3]\tchange\tallowed\tverdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.name], b.Workloads[w.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range checked(w) {
			sa, sb := wa.Metrics[m.name], wb.Metrics[m.name]
			v, change, allowed := judge(m, m.boundOn(w.name), sa, sb)
			switch v {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s [%s, %s]\t%s [%s, %s]\t%+.4g\t%.4g\t%s\n", w.name, m.name, m.unit,
				formatValue(sa.Value), formatValue(sa.Q1), formatValue(sa.Q3),
				formatValue(sb.Value), formatValue(sb.Q1), formatValue(sb.Q3), change, allowed, v)
		}
	}
	tw.Flush()
	return worse, unresolved
}

// checked lists the metrics -check compares on a workload: the end-to-end
// metrics, and on the open loop the number of saturated rounds.
func checked(w *workload) []metricDef {
	if w.loop != loopOpen {
		return endToEnd
	}
	return append(endToEnd[:len(endToEnd):len(endToEnd)], saturatedRounds)
}

// judge compares b against reference a for one metric carrying the given
// bound. change is how much worse b's median over rounds is (negative:
// better), in the metric's unit; allowed is the larger of the relative bound
// and the absolute floor. Where the rounds of either side spread wider than
// allowed — first to third quartile — the runs cannot resolve a difference of
// that size: the pair is unresolved, not unchanged — unless every round of b
// reads better than every round of a (ok), or every round reads worse and
// the median moved beyond allowed (worse). Otherwise a change within allowed
// is ok and one beyond it is worse.
func judge(m metricDef, bound float64, a, b summary) (verdict string, change, allowed float64) {
	change = b.Value - a.Value
	if m.better == higher {
		change = -change
	}
	allowed = math.Max(bound*math.Abs(a.Value), m.floor)
	if spread := math.Max(a.Q3-a.Q1, b.Q3-b.Q1); spread > allowed {
		switch {
		case everyRoundWorse(m, b, a): // every round of a worse than every round of b
			return verdictOK, change, allowed
		case everyRoundWorse(m, a, b) && change > allowed:
			return verdictWorse, change, allowed
		default:
			return verdictUnresolved, change, allowed
		}
	}
	if change <= allowed {
		return verdictOK, change, allowed
	}
	return verdictWorse, change, allowed
}

// everyRoundWorse reports whether every round of b reads worse than every
// round of a.
func everyRoundWorse(m metricDef, a, b summary) bool {
	if m.better == higher {
		return b.Max < a.Min
	}
	return b.Min > a.Max
}
