// Package stats provides a small fixed-footprint latency histogram
// used to report transaction-latency percentiles in virtual
// nanoseconds. Buckets are log2-spaced: bucket i counts samples in
// [2^i, 2^(i+1)) ns, which gives ~±50% resolution over the whole
// nanosecond-to-second range with 64 counters and no allocation on
// the record path.
package stats

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"strings"
)

// Buckets is the number of log2 buckets (covers up to 2^63 ns).
const Buckets = 64

// Histogram is a log2 latency histogram. It is not safe for
// concurrent use; each thread owns one and they are merged afterward.
type Histogram struct {
	counts [Buckets]int64
	total  int64
	sum    int64
	max    int64
}

// Record adds one sample (ns >= 0; negative samples are clamped).
func (h *Histogram) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns)) // 0 -> bucket 0, 1 -> 1, 2..3 -> 2 ...
	if b >= Buckets {
		b = Buckets - 1
	}
	h.counts[b]++
	h.total++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
}

// Merge adds other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() int64 { return h.total }

// Mean reports the arithmetic mean sample, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Max reports the largest recorded sample.
func (h *Histogram) Max() int64 { return h.max }

// Percentile reports an upper bound for the p-th percentile
// (0 < p <= 100): the top of the bucket containing that rank.
func (h *Histogram) Percentile(p float64) int64 {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		p = 0.01
	}
	if p > 100 {
		p = 100
	}
	rank := int64(float64(h.total)*p/100 + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i >= 63 {
				return h.max
			}
			hi := int64(1) << uint(i)
			if hi > h.max && h.max > 0 {
				return h.max
			}
			return hi
		}
	}
	return h.max
}

// P50 reports the median. Like all bucket-derived quantiles it is the
// top of the log2 bucket holding the rank, so the reported value is
// exact to within the bucket width: at most 2x the true quantile and
// never below it (~±50% relative error bound), clamped to the true
// maximum.
func (h *Histogram) P50() int64 { return h.Percentile(50) }

// P90 reports the 90th percentile (see P50 for the error bound).
func (h *Histogram) P90() int64 { return h.Percentile(90) }

// P99 reports the 99th percentile (see P50 for the error bound).
func (h *Histogram) P99() int64 { return h.Percentile(99) }

// P999 reports the 99.9th percentile (see P50 for the error bound) —
// the extreme-tail quantile the serving-path reports surface, since a
// group-commit window or journal flush that hurts only one request in
// a thousand is invisible at p99.
func (h *Histogram) P999() int64 { return h.Percentile(99.9) }

// Sum reports the total of all recorded samples in ns (the telemetry
// exposition's summary _sum line).
func (h *Histogram) Sum() int64 { return h.sum }

// Bucket is one non-empty histogram bucket in the JSON encoding:
// Count samples in [LoNS, 2*LoNS) virtual ns.
type Bucket struct {
	LoNS  int64 `json:"lo_ns"`
	Count int64 `json:"count"`
}

// histogramJSON is the wire form of a Histogram: a human-readable
// summary plus the exact state (buckets, sum, max) a reader needs to
// rebuild the distribution.
type histogramJSON struct {
	Count   int64    `json:"count"`
	MeanNS  float64  `json:"mean_ns"`
	P50NS   int64    `json:"p50_ns"`
	P95NS   int64    `json:"p95_ns"`
	P99NS   int64    `json:"p99_ns"`
	MaxNS   int64    `json:"max_ns"`
	SumNS   int64    `json:"sum_ns"`
	Buckets []Bucket `json:"buckets"`
}

// MarshalJSON encodes the distribution as a summary plus the non-empty
// buckets, the form the CSV export embeds per measurement row and
// ptmserve's /snapshot document carries.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	var buckets []Bucket
	for i, c := range h.counts {
		if c > 0 {
			buckets = append(buckets, Bucket{LoNS: int64(1) << uint(i) >> 1, Count: c})
		}
	}
	return json.Marshal(histogramJSON{
		Count: h.total, MeanNS: h.Mean(),
		P50NS: h.Percentile(50), P95NS: h.Percentile(95), P99NS: h.Percentile(99),
		MaxNS: h.max, SumNS: h.sum, Buckets: buckets,
	})
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.0fns p50=%dns p99=%dns max=%dns",
		h.total, h.Mean(), h.Percentile(50), h.Percentile(99), h.max)
}

// Bars renders an ASCII sketch of the non-empty buckets (for the CLI
// tools' verbose output).
func (h *Histogram) Bars(width int) string {
	if h.total == 0 {
		return "(empty)"
	}
	var peak int64
	lo, hi := -1, -1
	for i, c := range h.counts {
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
			if c > peak {
				peak = c
			}
		}
	}
	var b strings.Builder
	for i := lo; i <= hi; i++ {
		n := int(float64(h.counts[i]) / float64(peak) * float64(width))
		if n == 0 && h.counts[i] > 0 {
			n = 1 // a populated bucket must be visible, however small
		}
		fmt.Fprintf(&b, "%10dns |%-*s| %d\n", int64(1)<<uint(i), width, strings.Repeat("#", n), h.counts[i])
	}
	return b.String()
}
