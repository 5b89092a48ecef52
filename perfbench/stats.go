package main

import (
	"math"
	"slices"
)

// minBeyond is the reporting rule for percentiles: a percentile is only
// reported when at least this many samples lie beyond it, so a p90 needs
// 100 samples and a p50 needs 20.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether it may be reported under the minBeyond rule. xs is not modified.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	rank = min(max(rank, 1), n)
	return s[rank-1], n-rank >= minBeyond
}

// median is the interpolated middle of xs (0 for an empty slice); used for
// the benchmark's own aggregates (set-up repeats, per-layer medians), where
// the percentile reporting rule does not apply.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
