package wpq

import (
	"testing"

	"goptm/internal/metrics"
)

// TestCountersUnderSaturation floods the small queue (depth 4, 2 ports,
// hold 100) past its drain rate and checks the full counter breakdown:
// per-cause accepts and stalls, stall events, and max occupancy (which
// needs a registry attached to enable the occupancy scan).
func TestCountersUnderSaturation(t *testing.T) {
	c := New(small())
	c.SetMetrics(metrics.New(metrics.Config{}))

	// 4 clwb flushes fill the queue without stalling; 4 eviction
	// flushes then each wait for a drain.
	for i := 0; i < 4; i++ {
		c.EnqueueNVM(0, 0, uint64(10+i*3), CauseCLWB)
	}
	for i := 0; i < 4; i++ {
		c.EnqueueNVM(0, 0, uint64(100+i*3), CauseEviction)
	}
	k := c.Counters()

	if k.Accepts != 8 {
		t.Fatalf("accepts = %d, want 8", k.Accepts)
	}
	if k.AcceptsByCause[CauseCLWB] != 4 || k.AcceptsByCause[CauseEviction] != 4 {
		t.Fatalf("accepts by cause = %v", k.AcceptsByCause)
	}
	if k.AcceptsByCause[CauseWCDrain] != 0 {
		t.Fatalf("wc-drain accepts = %d, want 0", k.AcceptsByCause[CauseWCDrain])
	}
	if k.StallNS == 0 || k.StallEvents == 0 {
		t.Fatalf("saturated queue recorded no stalls: %+v", k)
	}
	if k.StallNSByCause[CauseCLWB] != 0 {
		t.Fatalf("clwb stalls = %d, want 0 (queue was not yet full)", k.StallNSByCause[CauseCLWB])
	}
	if k.StallNSByCause[CauseEviction] != k.StallNS {
		t.Fatalf("eviction stalls = %d, want all of %d", k.StallNSByCause[CauseEviction], k.StallNS)
	}
	var sum int64
	for _, s := range k.StallNSByCause {
		sum += s
	}
	if sum != k.StallNS {
		t.Fatalf("per-cause stalls sum to %d, total %d", sum, k.StallNS)
	}
	if k.MaxOccupancy != 4 {
		t.Fatalf("max occupancy = %d, want 4 (the full queue)", k.MaxOccupancy)
	}
}

// TestMaxOccupancyRequiresObserver pins the documented caveat: without
// a registry attached the occupancy scan is elided and MaxOccupancy
// reads 0 even under saturation.
func TestMaxOccupancyRequiresObserver(t *testing.T) {
	c := New(small())
	for i := 0; i < 8; i++ {
		c.EnqueueNVM(0, 0, uint64(10+i*3), CauseCLWB)
	}
	if got := c.Counters().MaxOccupancy; got != 0 {
		t.Fatalf("max occupancy without registry = %d, want 0 (scan elided)", got)
	}
}

// TestCombinedHitsCounter checks the write-combining accounting: a
// sequential stream and a same-line re-flush count, a stride does not.
func TestCombinedHitsCounter(t *testing.T) {
	c := New(small())
	c.EnqueueNVM(0, 0, 10, CauseCLWB) // opens the stream
	c.EnqueueNVM(0, 0, 11, CauseCLWB) // sequential: hit
	c.EnqueueNVM(0, 0, 11, CauseCLWB) // same line: hit
	c.EnqueueNVM(0, 0, 40, CauseCLWB) // jump: miss
	if got := c.Counters().CombinedHits; got != 2 {
		t.Fatalf("combined hits = %d, want 2", got)
	}
}

// TestMetricsFeed checks the media-model feed: every line flush and
// bulk transfer reaches the registry's XPBuffer model.
func TestMetricsFeed(t *testing.T) {
	c := New(small())
	m := metrics.New(metrics.Config{})
	c.SetMetrics(m)
	for i := 0; i < 8; i++ {
		c.EnqueueNVM(0, 0, uint64(10+i*3), CauseCLWB)
	}
	c.ReadNVM(0, 500)
	c.ReadNVMBulk(0, 8)
	c.WriteNVMBulk(0, 8)

	probes := m.Get(metrics.CtrMediaWriteXPLines) + m.Get(metrics.CtrXPBufWriteHits)
	// 8 line flushes + ceil(8/4)=2 bulk XPLines land on the write side.
	if probes != 8+2 {
		t.Fatalf("media write probes+bulk = %d, want 10", probes)
	}
	if got := m.Get(metrics.CtrMediaBulkReadLines); got != 8 {
		t.Fatalf("bulk read lines = %d, want 8", got)
	}
}

// TestBulkLineCounters checks the controller's own bulk accounting.
func TestBulkLineCounters(t *testing.T) {
	c := New(small())
	c.ReadNVMBulk(0, 64)
	c.WriteNVMBulk(0, 32)
	k := c.Counters()
	if k.BulkReadLines != 64 || k.BulkWriteLines != 32 {
		t.Fatalf("bulk lines = %d/%d, want 64/32", k.BulkReadLines, k.BulkWriteLines)
	}
}

func TestCauseString(t *testing.T) {
	for c := Cause(0); c < NumCauses; c++ {
		if c.String() == "cause?" {
			t.Fatalf("cause %d has no name", c)
		}
	}
	if NumCauses.String() != "cause?" {
		t.Fatal("out-of-range cause should render cause?")
	}
}
