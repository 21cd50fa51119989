package main

import (
	"math"
	"sort"
)

// median returns the middle of v (mean of the two middle values for an
// even count); 0 for an empty slice. v is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so a spread
// computed here is the spread the driver computes. Fewer than two
// values have no spread: both quartiles are the single value.
func quartiles(v []float64) (q1, q3 float64) {
	if len(v) < 2 {
		m := median(v)
		return m, m
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(len(s)+1)/4, 1), len(s)-1)
		delta := i*(len(s)+1) - j*4 // outside 0..4 at the ends: Python extrapolates there
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rank(len(sorted), p), 1)-1]
}

// rank is the nearest-rank position of the p-th percentile among n
// samples; the epsilon keeps 99.99% of 100000 at 99990, not 99991.
func rank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// samplesBeyond is how many of n samples lie above the p-th percentile.
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// tailPercentiles are the tail points a latency report may use.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90}

// highestPercentile picks the highest tail percentile that still has at
// least ten of the n samples beyond it (the choosing-metrics rule); 50
// when the sample is too small for any tail.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if samplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}
