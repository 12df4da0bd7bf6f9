package stats

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram not zeroed")
	}
	if h.Bars(10) != "(empty)" {
		t.Fatal("empty bars")
	}
}

func TestRecordBasics(t *testing.T) {
	var h Histogram
	for _, v := range []int64{100, 200, 300, 400} {
		h.Record(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 250 {
		t.Fatalf("mean = %f", h.Mean())
	}
	if h.Max() != 400 {
		t.Fatalf("max = %d", h.Max())
	}
}

func TestNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Count() != 1 || h.Max() != 0 {
		t.Fatal("negative sample not clamped")
	}
}

func TestPercentileBounds(t *testing.T) {
	var h Histogram
	// 99 samples of ~100ns and 1 of ~1,000,000ns.
	for i := 0; i < 99; i++ {
		h.Record(100)
	}
	h.Record(1_000_000)
	p50 := h.Percentile(50)
	if p50 < 100 || p50 > 256 {
		t.Fatalf("p50 = %d, want ~128 (log2 bucket top)", p50)
	}
	p999 := h.Percentile(99.9)
	if p999 < 1_000_000 {
		t.Fatalf("p99.9 = %d, want >= the outlier", p999)
	}
	// Out-of-range p values are clamped, not panics.
	h.Percentile(-1)
	h.Percentile(200)
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(samples []uint32) bool {
		var h Histogram
		for _, s := range samples {
			h.Record(int64(s))
		}
		last := int64(0)
		for _, p := range []float64{10, 25, 50, 75, 90, 99, 100} {
			v := h.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return h.Count() == 0 || h.Percentile(100) >= h.Max()/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileWithinFactorTwoProperty(t *testing.T) {
	// Log2 buckets promise the reported p100 is within 2x of the max.
	f := func(samples []uint16) bool {
		var h Histogram
		for _, s := range samples {
			h.Record(int64(s) + 1)
		}
		if h.Count() == 0 {
			return true
		}
		p := h.Percentile(100)
		return p >= h.Max()/2 && p <= 2*h.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMerge(t *testing.T) {
	var a, b Histogram
	a.Record(10)
	a.Record(20)
	b.Record(1000)
	a.Merge(&b)
	if a.Count() != 3 || a.Max() != 1000 {
		t.Fatalf("merge: count=%d max=%d", a.Count(), a.Max())
	}
	if a.Mean() < 300 || a.Mean() > 350 {
		t.Fatalf("merged mean = %f", a.Mean())
	}
}

func TestStringAndBars(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	s := h.String()
	if !strings.Contains(s, "n=1000") || !strings.Contains(s, "p50=") {
		t.Fatalf("summary malformed: %q", s)
	}
	bars := h.Bars(20)
	if !strings.Contains(bars, "#") {
		t.Fatalf("bars malformed: %q", bars)
	}
}

func TestBarsSmallBucketsVisible(t *testing.T) {
	// A bucket whose proportional width rounds to zero must still show
	// at least one '#': one outlier dwarfing one small sample.
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Record(1 << 20)
	}
	h.Record(2) // tiny, 1/1000th of the peak bucket
	for _, line := range strings.Split(strings.TrimRight(h.Bars(20), "\n"), "\n") {
		if strings.HasSuffix(line, " 0") {
			continue // empty in-between bucket: no bar expected
		}
		if !strings.Contains(line, "#") {
			t.Fatalf("populated bucket rendered with no bar: %q", line)
		}
	}
}

func TestMarshalJSON(t *testing.T) {
	var h Histogram
	for _, v := range []int64{100, 100, 200, 1 << 20} {
		h.Record(v)
	}
	data, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Count   int64    `json:"count"`
		MeanNS  float64  `json:"mean_ns"`
		P50NS   int64    `json:"p50_ns"`
		P95NS   int64    `json:"p95_ns"`
		P99NS   int64    `json:"p99_ns"`
		MaxNS   int64    `json:"max_ns"`
		Buckets []Bucket `json:"buckets"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	if got.Count != 4 || got.MaxNS != 1<<20 {
		t.Fatalf("summary wrong: %s", data)
	}
	if got.P50NS <= 0 || got.P95NS < got.P50NS || got.P99NS < got.P95NS {
		t.Fatalf("percentiles wrong: %s", data)
	}
	var n int64
	for _, b := range got.Buckets {
		if b.Count <= 0 {
			t.Fatalf("empty bucket emitted: %s", data)
		}
		n += b.Count
	}
	if n != 4 {
		t.Fatalf("bucket counts sum to %d: %s", n, data)
	}
}

func TestMarshalJSONEmpty(t *testing.T) {
	var h Histogram
	data, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"count":0`) {
		t.Fatalf("empty histogram JSON: %s", data)
	}
}

func TestHugeSampleClamps(t *testing.T) {
	var h Histogram
	h.Record(1 << 62)
	if h.Percentile(100) < 1<<61 {
		t.Fatal("huge sample lost")
	}
}

func TestQuantileAccessorsEmpty(t *testing.T) {
	var h Histogram
	if h.P50() != 0 || h.P90() != 0 || h.P99() != 0 {
		t.Fatalf("empty histogram quantiles = %d/%d/%d, want 0",
			h.P50(), h.P90(), h.P99())
	}
}

func TestQuantileAccessorsSingleBucket(t *testing.T) {
	// All samples in one bucket: every quantile is that bucket's top,
	// clamped to the true max.
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(70) // bucket [64, 128)
	}
	for _, q := range []int64{h.P50(), h.P90(), h.P99()} {
		if q != 70 {
			t.Fatalf("single-bucket quantile = %d, want 70 (clamped to max)", q)
		}
	}
	h.Record(100) // same bucket, raises max
	if h.P99() != 100 {
		t.Fatalf("P99 = %d, want 100", h.P99())
	}
}

func TestQuantileAccessorsOrdering(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(int64(i))
	}
	p50, p90, p99 := h.P50(), h.P90(), h.P99()
	if !(p50 <= p90 && p90 <= p99) {
		t.Fatalf("quantiles not ordered: %d/%d/%d", p50, p90, p99)
	}
	// Documented bound: at most 2x the true quantile, never below it.
	if p50 < 500 || p50 > 1000 {
		t.Fatalf("P50 = %d outside [500, 1000]", p50)
	}
	if p99 < 990 || p99 > 1000 {
		t.Fatalf("P99 = %d outside [990, 1000] (clamped to max)", p99)
	}
}
