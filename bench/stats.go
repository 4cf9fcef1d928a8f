package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile of sorted by the ceil nearest-rank rule:
// the smallest sample with at least a q share of the samples at or below it.
// Truncating the rank instead would under-report tails. It returns 0 for an
// empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	return sorted[min(max(i, 0), n-1)]
}

// tailPercentile returns the q-quantile only when at least ten samples lie
// beyond it — the highest percentile a sample supports — and ok=false
// otherwise.
func tailPercentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if n-rank < 10 {
		return 0, false
	}
	return percentile(sorted, q), true
}

// median returns the middle of vals (the mean of the two middle values for
// an even count) without reordering the caller's slice.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return 0
	}
	s := sortedCopy(vals)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vals as Python's
// statistics.quantiles(vals, n=4) computes them (the exclusive method): the
// definition the repeatability criterion is stated in. Fewer than two
// values have no spread: both quartiles are the value itself.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vals[0], vals[0]
	}
	s := sortedCopy(vals)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// summary is one metric's distribution over the rounds of a run. Value is the
// reported value: the median over rounds. The rest is printed beside it.
type summary struct {
	Value  float64   `json:"value"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Rounds []float64 `json:"rounds"`
}

func summarize(rounds []float64) summary {
	s := summary{Rounds: rounds, Value: median(rounds)}
	s.Q1, s.Q3 = quartiles(rounds)
	if len(rounds) > 0 {
		sorted := sortedCopy(rounds)
		s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	}
	return s
}
