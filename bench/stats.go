package main

import (
	"math"
	"sort"
)

// The slice reducer. Every timing in this benchmark is taken per slice
// (a fixed batch of homogeneous operations timed with one clock pair
// per segment) and reduced across slices by a low quantile: on a shared
// host, interference from neighbours only ever adds time to a slice, so
// the quiet decile estimates the program and the upper quantiles
// estimate the neighbours. See README.md, "The estimator".

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between order statistics. xs is not modified. It returns NaN
// for an empty series.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quietDecile is the estimator behind every reported time: the 10th
// percentile across slices.
func quietDecile(xs []float64) float64 { return quantile(xs, 0.10) }

// median is the slice median; rpc_mixed uses it inside a slice to turn
// per-request latencies into one value per slice.
func median(xs []float64) float64 { return quantile(xs, 0.50) }

// noiseRatio is median / quiet decile of the slice times: 1.0 on an
// idle host, and it grows as more slices are disturbed, so a disturbed
// run is visible in its own output.
func noiseRatio(xs []float64) float64 { return median(xs) / quietDecile(xs) }

// p99 is the whole-run 99th percentile with the number of samples it
// was taken from: a tail figure is only as good as the samples beyond
// it, so the two are always reported together.
func p99(xs []float64) (value float64, samples int) {
	return quantile(xs, 0.99), len(xs)
}

// mean is the whole-run mean, reported only as an unbounded diagnostic
// beside the quiet-decile figure.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
