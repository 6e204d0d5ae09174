package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs             []float64
		median, q1, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{2, 1}, 1.5, 1, 2},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 5.5, 2.75, 8.25},
		{[]float64{1, 1, 1, 1, 100}, 1, 1, 50.5},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.median {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.median)
		}
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("statistics of an empty sample must be NaN")
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: the function must sort
		}
		return xs
	}
	cases := []struct {
		n         int
		want      float64
		value     float64
		pct       float64
		ok        bool
		beyondMin int
	}{
		{10, 99, math.NaN(), 0, false, 0},
		{11, 99, 1, 9, true, 10},     // only the minimum has ten beyond it
		{100, 99, 90, 90, true, 10},  // capped at n-10
		{500, 99, 490, 98, true, 10}, // 0.98*500 must not round up to 491
		{1000, 99, 990, 99, true, 10},
		{5000, 99, 4950, 99, true, 50},
		{5000, 50, 2500, 50, true, 2500},
	}
	for _, c := range cases {
		v, pct, n, ok := tailPercentile(seq(c.n), c.want)
		if ok != c.ok || n != c.n {
			t.Fatalf("n=%d: ok=%v n=%d, want ok=%v", c.n, ok, n, c.ok)
		}
		if !ok {
			continue
		}
		if v != c.value || pct != c.pct {
			t.Errorf("n=%d p%v: got %v (p%v), want %v (p%v)", c.n, c.want, v, pct, c.value, c.pct)
		}
		if beyond := c.n - int(v); beyond < c.beyondMin || beyond < 10 {
			t.Errorf("n=%d: %d samples beyond the reported percentile", c.n, beyond)
		}
	}
}
