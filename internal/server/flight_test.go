package server

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"goptm/internal/obs"
)

// oneRecord is a completion record carrying one request, every
// lifecycle boundary at ts — what the executor hands the ring.
func oneRecord(op Op, shard int, ts int64) *completion {
	req := &Request{Op: op, enq: ts, pop: ts}
	return &completion{shard: shard, members: []*Request{req},
		closed: ts, ran: ts, drained: ts, flushed: ts, acked: ts}
}

// TestFlightNilSafety: a nil recorder is the disabled configuration —
// every method no-ops.
func TestFlightNilSafety(t *testing.T) {
	var f *FlightRecorder
	f.observe(oneRecord(OpSet, 0, 1))
	f.AddSample(FlightSample{})
	f.StartMirror("/nonexistent/x", time.Millisecond, nil)
	if err := f.Dump(); err != nil {
		t.Fatalf("nil dump: %v", err)
	}
	f.Stop()
	f.Export(obs.New(1, true))
	if f.Seq() != 0 || f.Snapshot() != nil {
		t.Fatal("nil recorder retained state")
	}
	if NewFlightRecorder(0) != nil {
		t.Fatal("size 0 should disable the recorder")
	}
}

// TestFlightRingWrap: the ring keeps the newest records, as many as
// its power-of-two capacity; older ones count as dropped. Export hands
// exactly the survivors on, oldest first — the ring is the only bound
// on a -trace file.
func TestFlightRingWrap(t *testing.T) {
	f := NewFlightRecorder(5) // rounds up to 8
	for i := 0; i < 20; i++ {
		f.observe(oneRecord(Op(i%4), i%3, int64(i)))
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
		if want := int64(12 + i); r.TS[0] != want || r.TS[obs.NumReqPhases] != want {
			t.Fatalf("record %d chain %v, want every boundary at %d", i, r.TS, want)
		}
	}
	if f.Seq() != 20 {
		t.Fatalf("seq = %d, want 20", f.Seq())
	}
	rec := obs.New(1, true)
	f.Export(rec)
	chains := rec.Requests()
	if len(chains) != len(recs) {
		t.Fatalf("exported %d chains, ring held %d", len(chains), len(recs))
	}
	for i, q := range chains {
		if q != recs[i].Chain() || q.ID != recs[i].Seq {
			t.Fatalf("chain %d is %+v, want record %+v", i, q, recs[i])
		}
	}
}

// TestFlightConcurrentRecord: concurrent writers against a snapshotting
// reader — the ring must never yield a torn record (and, under -race,
// must not race: the per-slot seqlock this replaced did).
func TestFlightConcurrentRecord(t *testing.T) {
	f := NewFlightRecorder(64)
	d := oneRecord(OpGet, 1, 7)
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
					f.observe(d)
				}
			}
		}()
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, r := range f.Snapshot() {
			if r.TS != [obs.NumReqPhases + 1]int64{7, 7, 7, 7, 7, 7, 7, 7} || r.Shard != 1 {
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
		f.observe(oneRecord(OpDelete, i%3, 100))
	}
	time.Sleep(10 * time.Millisecond)
	f.Stop()

	d, err := ReadFlightDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Schema != flightSchema || flightSchema != 2 {
		t.Fatalf("schema = %d, want 2", d.Schema)
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
	if last := d.Records[len(d.Records)-1]; last.TS[0] != 100 || last.TS[obs.NumReqPhases] != 100 || last.Op != uint8(OpDelete) {
		t.Fatalf("record lost its chain in the round trip: %+v", last)
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

// TestDisabledPathZeroAlloc pins the acceptance requirement: the
// per-request path (Submit, the pop) and the per-batch completion-record
// path — begin, fan-out to every observer, release — allocate nothing,
// with the flight ring off on virtual time and with it on under
// WallClock, where every lifecycle stamp is a host-clock read.
func TestDisabledPathZeroAlloc(t *testing.T) {
	for _, ring := range []*FlightRecorder{nil, NewFlightRecorder(32)} {
		wall := ring != nil
		s := &shard{id: 3}
		e := &Executor{cfg: ExecConfig{QueueDepth: 8, Flight: ring, WallClock: wall}, shards: []*shard{s}, epoch: time.Now()}
		members := []*Request{{Op: OpSet, EnqVT: 10}, {Op: OpGet, EnqVT: 20, Warmup: true}}
		batch := make([]*Request, 0, len(members))
		allocs := testing.AllocsPerRun(200, func() {
			for _, req := range members {
				if !e.Submit(req) {
					t.Fatal("submit rejected")
				}
			}
			batch = batch[:0]
			s.popLive(e, len(members), 100, -1, &batch)
			d := e.begin(s, batchExecuted, batch, 100)
			d.barrierNS = 5
			e.complete(s, d)
			e.complete(s, e.begin(s, batchShed, members[:1], 100))
		})
		if allocs != 0 {
			t.Fatalf("request + record path (flight ring on, WallClock: %v) allocates %.1f per batch, want 0", wall, allocs)
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
			if last.Shard != 3 || last.Op != uint8(OpSet) || last.TS[0] <= 0 || last.TS[obs.NumReqPhases] > int64(time.Since(e.epoch)) {
				t.Fatalf("ring record not stamped on host time from the completion: %+v", last)
			}
		}
	}
}
