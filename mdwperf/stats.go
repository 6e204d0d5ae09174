package main

import (
	"math"
	"sort"
)

// The benchmark's statistics, stdlib only. Quantiles interpolate linearly
// between order statistics at position q*(n+1), the rule of Python's
// statistics.quantiles (default "exclusive" method) wherever that position
// falls inside the sample, so the spreads printed here match what an
// outside reader recomputes from the raw values.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 <= q <= 1) of xs by the exclusive
// method: position q*(n+1) in 1-based order statistics, clamped to the
// extremes. NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q * float64(n+1)
	if pos <= 1 {
		return s[0]
	}
	if pos >= float64(n) {
		return s[n-1]
	}
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return s[lo-1] + frac*(s[lo]-s[lo-1])
}

// median returns the middle value of xs (mean of the middle two for an even
// count). NaN for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs.
func quartiles(xs []float64) (q1, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.75)
}

// tailPercentile returns the highest percentile of xs that still has at
// least ten samples strictly beyond it, capped at want (for example 99),
// together with that percentile and the sample count. A tail read off fewer
// than ten samples is one or two outliers, not a percentile; below 11
// samples there is no such percentile and ok is false.
func tailPercentile(xs []float64, want float64) (value, pct float64, n int, ok bool) {
	n = len(xs)
	if n < 11 {
		return math.NaN(), 0, n, false
	}
	s := sorted(xs)
	// The nearest-rank percentile p reads s[k-1] with k = ceil(p/100*n), and
	// n-k samples lie beyond it; keep n-k >= 10. The small epsilon keeps
	// want/100*n from rounding up past an exact integer.
	k := int(math.Ceil(want/100*float64(n) - 1e-9))
	if k > n-10 {
		k = n - 10
	}
	if k < 1 {
		k = 1
	}
	pct = math.Floor(1000*float64(k)/float64(n)) / 10
	return s[k-1], pct, n, true
}
