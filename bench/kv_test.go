package main

import (
	"testing"
	"time"
)

// TestScheduleCheck: a stall voids the slices it touches, and the run
// only once half its slices are off schedule.
func TestScheduleCheck(t *testing.T) {
	const perSlice = 100
	run := func(lateSlices []int, capAtNS ...int64) *kvRun {
		r := &kvRun{window: 4 * time.Second, capAtNS: capAtNS}
		for s := 0; s < 4; s++ {
			for i := 0; i < perSlice; i++ {
				late := 200 * time.Microsecond
				for _, ls := range lateSlices {
					if ls == s && i < 5 { // five of a hundred: beyond the slice's p99
						late = 20 * time.Millisecond
					}
				}
				r.lateNS = append(r.lateNS, late.Nanoseconds())
				r.lateAtNS = append(r.lateAtNS, (time.Duration(s)*time.Second + time.Duration(i)*time.Millisecond).Nanoseconds())
			}
		}
		return r
	}
	for _, tc := range []struct {
		name string
		run  *kvRun
		bad  int
	}{
		{"on schedule", run(nil), 0},
		{"one late slice of four", run([]int{2}), 0},
		{"two late slices of four", run([]int{0, 2}), 1},
		{"one late slice and a cap hit in another", run([]int{1}, (3500 * time.Millisecond).Nanoseconds()), 1},
		{"cap hits in the late slice", run([]int{1}, (1500 * time.Millisecond).Nanoseconds(), (1600 * time.Millisecond).Nanoseconds()), 0},
	} {
		if c := scheduleCheck(tc.run, 128); c.Bad != tc.bad || c.Units != 1 {
			t.Errorf("%s: bad %d of %d, want %d of 1: %s", tc.name, c.Bad, c.Units, tc.bad, c.Detail)
		}
	}
}
