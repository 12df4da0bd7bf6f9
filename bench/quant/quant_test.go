package quant

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	samples := []int64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, tc := range []struct {
		p    float64
		want int64
	}{{1, 10}, {20, 10}, {21, 20}, {50, 30}, {80, 40}, {81, 50}, {99, 50}, {100, 50}} {
		if got := Percentile(samples, tc.p); got != tc.want {
			t.Errorf("Percentile(p=%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %d, want 0", got)
	}
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(100 - i) // 1..100, reversed
	}
	if got := Percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %d, want 99", got)
	}
}

func TestBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{
		{30000, 99, 300}, // the sample size that puts 300 replies beyond p99
		{10000, 99, 100},
		{120, 99, 1}, // sim_sweep's two rounds: p99 is the second-slowest cell
		{120, 90, 12},
		{1, 99, 0},
		{0, 99, 0},
	} {
		if got := Beyond(tc.n, tc.p); got != tc.want {
			t.Errorf("Beyond(%d, %v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestMidMean(t *testing.T) {
	// Eight values: the two lowest and the two highest are dropped.
	if got := MidMean([]float64{1000, 4, 3, 6, 5, 0, 2, 7}); got != 4.5 {
		t.Errorf("MidMean of 8 = %v, want 4.5", got)
	}
	// Fewer than four: nothing to drop.
	if got := MidMean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("MidMean of 3 = %v, want 3", got)
	}
	if got := MidMean(nil); got != 0 {
		t.Errorf("empty MidMean = %v, want 0", got)
	}
}
