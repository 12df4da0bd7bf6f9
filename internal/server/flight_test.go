package server

import (
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestFlightNilSafety: a nil recorder is the disabled configuration —
// every method no-ops.
func TestFlightNilSafety(t *testing.T) {
	var f *FlightRecorder
	f.Record(FlightRecord{Op: 1})
	f.AddSample(FlightSample{})
	f.StartMirror("/nonexistent/x", time.Millisecond, nil)
	if err := f.Dump(); err != nil {
		t.Fatalf("nil dump: %v", err)
	}
	f.Stop()
	if f.Seq() != 0 || f.Snapshot() != nil {
		t.Fatal("nil recorder retained state")
	}
	if NewFlightRecorder(0) != nil {
		t.Fatal("size 0 should disable the recorder")
	}
}

// TestFlightRingWrap: the ring keeps the newest records, as many as
// its power-of-two capacity; older ones count as dropped.
func TestFlightRingWrap(t *testing.T) {
	f := NewFlightRecorder(5) // rounds up to 8
	for i := 0; i < 20; i++ {
		f.Record(FlightRecord{Op: uint8(i), LatNS: int64(i)})
	}
	recs := f.Snapshot()
	if len(recs) != 8 {
		t.Fatalf("snapshot kept %d records, want 8", len(recs))
	}
	for i, r := range recs {
		if want := uint64(13 + i); r.Seq != want {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, want)
		}
		if r.WallNS == 0 {
			t.Fatalf("record %d missing wall stamp", i)
		}
	}
	if f.Seq() != 20 {
		t.Fatalf("seq = %d, want 20", f.Seq())
	}
}

// TestFlightConcurrentRecord: concurrent writers against a snapshotting
// reader — the ring must never yield a torn record (and, under -race,
// must not race: the per-slot seqlock this replaced did).
func TestFlightConcurrentRecord(t *testing.T) {
	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f.Record(FlightRecord{EnqVT: 7, DoneVT: 7})
				}
			}
		}()
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, r := range f.Snapshot() {
			if r.EnqVT != 7 || r.DoneVT != 7 {
				t.Errorf("torn record: %+v", r)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestFlightDumpRoundTrip: the mirror loop writes a sidecar that
// ReadFlightDump parses back, records oldest-first, samples bounded.
func TestFlightDumpRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.img.flight")
	f := NewFlightRecorder(16)
	n := 0
	f.StartMirror(path, time.Millisecond, func() Snapshot {
		n++
		return Snapshot{QueueDepth: int64(n), Counters: map[string]int64{"commits": int64(n), "aborts": 0}}
	})
	for i := 0; i < 24; i++ {
		f.Record(FlightRecord{Op: 2, Shard: uint16(i % 3), LatNS: 100})
	}
	time.Sleep(10 * time.Millisecond)
	f.Stop()

	d, err := ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Schema != flightSchema {
		t.Fatalf("schema = %d, want %d", d.Schema, flightSchema)
	}
	if d.Seq != 24 || len(d.Records) != 16 {
		t.Fatalf("seq=%d records=%d, want 24/16", d.Seq, len(d.Records))
	}
	if d.Dropped != 8 {
		t.Fatalf("dropped = %d, want 8", d.Dropped)
	}
	for i := 1; i < len(d.Records); i++ {
		if d.Records[i].Seq <= d.Records[i-1].Seq {
			t.Fatalf("records not in sequence order at %d", i)
		}
	}
	if len(d.Samples) == 0 || len(d.Samples) > maxFlightSamples {
		t.Fatalf("samples = %d", len(d.Samples))
	}
	if d.Samples[0].Counters["commits"] == 0 {
		t.Fatal("sample lost its counters")
	}
	if _, ok := d.Samples[0].Counters["aborts"]; ok {
		t.Fatal("sample carries a counter that never moved")
	}

	// A second Stop (the SIGTERM path can race the panic path) is safe.
	f.Stop()
}

// TestDisabledPathZeroAlloc pins the acceptance requirement: with
// sampling and the flight ring disabled, the per-request hooks cost
// nil checks only, and the per-batch completion-record path — begin,
// fan-out to every observer, release — allocates nothing either, with
// everything off and with only the flight ring on.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var f *FlightRecorder
	var tr *reqTracer
	req := &Request{}
	allocs := testing.AllocsPerRun(200, func() {
		f.Record(FlightRecord{})
		if rec := tr.start(0); rec != nil {
			req.Trace = rec
		}
		if tr.now(7) != 7 {
			t.Fatal("nil tracer clock is not the identity")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
	// The enabled ring write must not allocate either.
	fr := NewFlightRecorder(32)
	allocs = testing.AllocsPerRun(200, func() {
		fr.Record(FlightRecord{Op: 1})
	})
	if allocs != 0 {
		t.Fatalf("enabled ring write allocates %.1f per op, want 0", allocs)
	}

	members := []*Request{{Op: OpSet, EnqVT: 10}, {Op: OpGet, EnqVT: 20, Warmup: true}}
	for _, ring := range []*FlightRecorder{nil, NewFlightRecorder(32)} {
		e := &Executor{cfg: ExecConfig{Flight: ring}}
		s := &shard{id: 3}
		allocs := testing.AllocsPerRun(200, func() {
			d := e.begin(s, batchExecuted, members, 100)
			d.barrierNS = 5
			e.complete(s, d)
			e.complete(s, e.begin(s, batchShed, members[:1], 100))
		})
		if allocs != 0 {
			t.Fatalf("record path (flight ring on: %v) allocates %.1f per batch, want 0", ring != nil, allocs)
		}
		// The path ran for real: stats moved, and the ring (when on)
		// holds one record per member, stamped from the record.
		if s.batchSizes.Sum() == 0 || s.latency.Count() != s.batchSizes.Count() || s.shed.Load() == 0 || s.ackLat.Count() == 0 {
			t.Fatalf("record path left no stats: %d sized, %d latency, %d shed", s.batchSizes.Sum(), s.latency.Count(), s.shed.Load())
		}
		if ring != nil {
			recs := ring.Snapshot()
			last := recs[len(recs)-1]
			if want := uint64(3 * 201); ring.Seq() != want {
				t.Fatalf("ring saw %d records, want %d", ring.Seq(), want)
			}
			if last.Shard != 3 || last.DoneVT != 100 || last.LatNS != 90 || last.Op != uint8(OpSet) {
				t.Fatalf("ring record not stamped from the completion: %+v", last)
			}
		}
	}
}
