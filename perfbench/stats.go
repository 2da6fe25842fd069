package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the nearest-rank position (1-based) of percentile q in n
// samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// quantile is the nearest-rank percentile q of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// median of unsorted samples.
func median(xs []float64) float64 {
	return quantile(sortedCopy(xs), 0.5)
}

// mean of samples (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tail returns the highest ladder percentile that leaves at least
// minBeyond samples beyond it, and its value. With too few samples for
// any ladder percentile it returns the maximum with q = 1.
func tail(xs []float64) (q, v float64) {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0, 0
	}
	q = 1
	for _, p := range tailLadder {
		if len(s)-rank(len(s), p) >= minBeyond {
			q = p
		}
	}
	return q, quantile(s, q)
}
