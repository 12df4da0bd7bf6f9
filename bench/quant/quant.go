// Package quant holds the benchmark's order statistics.
package quant

import (
	"math"
	"slices"
)

// Percentile returns the p-th percentile (0 < p <= 100) of samples by
// the nearest-rank rule: the smallest sample with at least p percent
// of the samples at or below it. It sorts samples in place and
// returns 0 for an empty slice.
func Percentile(samples []int64, p float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	return samples[rank(len(samples), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// Beyond reports how many of n samples lie strictly above the p-th
// percentile's rank — the evidence behind a tail figure. A percentile
// is worth reporting when at least ten samples lie beyond it.
func Beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// Median returns the median of values (the mean of the middle two for
// an even count), or 0 for none. It sorts values in place.
func Median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	slices.Sort(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// MidMean returns the interquartile mean of values: the mean of what
// is left after dropping the lowest and the highest quarter (rounded
// down), or 0 for none. Like the median it ignores outliers; unlike
// it, it does not jump between two neighbouring values when the
// samples are quantized. It sorts values in place.
func MidMean(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	slices.Sort(values)
	kept := values[n/4 : n-n/4]
	sum := 0.0
	for _, v := range kept {
		sum += v
	}
	return sum / float64(len(kept))
}
