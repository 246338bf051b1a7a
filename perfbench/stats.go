package main

import (
	"math"
	"sort"
)

// tailLadder is the percentile ladder a timing is reported on, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie beyond a percentile before the
// sample supports reporting it.
const minBeyond = 10

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples. The tolerance keeps p99.9 of 10000 at rank 9990 despite the
// rounding in 99.9/100.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supportedPercentile is the highest ladder percentile with at least
// minBeyond of n samples strictly beyond it; ok is false when not even the
// median has that many.
func supportedPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if n-rank(n, q) < minBeyond {
			break
		}
		p, ok = q, true
	}
	return p, ok
}

// percentile is the nearest-rank p-th percentile of xs (0 for no samples).
// xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the middle value of xs, averaging the two middle values of an
// even-sized sample (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
