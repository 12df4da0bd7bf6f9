package loadsim

import (
	"bytes"
	"encoding/json"
	"testing"

	"goptm/internal/obs"
)

// traceDoc is the slice of the Chrome trace-event schema the tests
// inspect.
type traceDoc struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

func runTraced(t *testing.T, cfg Config) (Result, *obs.Recorder, traceDoc) {
	t.Helper()
	rec := obs.New(cfg.Shards+1, true)
	cfg.Recorder = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	return res, rec, doc
}

// TestTraceRequestChains is the tentpole acceptance check: a traced
// run exports one request span chain per served request — executed or
// shed, nothing sampled away — where every record covers all seven
// phases with monotone boundaries, and the phase durations sum exactly
// to the end-to-end latency (parse and enqueue coincide in the open
// loop, so the tolerance is zero virtual ticks).
func TestTraceRequestChains(t *testing.T) {
	cfg := Config{Shards: 2, Requests: 2000, Rate: 2e6, Seed: 3}
	res, rec, doc := runTraced(t, cfg)
	if res.Executed == 0 {
		t.Fatal("run executed nothing")
	}
	recs := rec.Requests()
	if int64(len(recs)) != res.Executed+res.Shed {
		t.Fatalf("%d chains for %d executed + %d shed requests", len(recs), res.Executed, res.Shed)
	}
	for _, q := range recs {
		for p := 0; p < int(obs.NumReqPhases); p++ {
			if q.TS[p+1] < q.TS[p] {
				t.Fatalf("req %d: boundary %d goes backwards: %v", q.ID, p, q.TS)
			}
		}
		var sum int64
		for p := 0; p < int(obs.NumReqPhases); p++ {
			sum += q.TS[p+1] - q.TS[p]
		}
		if e2e := q.TS[obs.NumReqPhases] - q.TS[0]; sum != e2e {
			t.Fatalf("req %d: phases sum to %d, end-to-end is %d", q.ID, sum, e2e)
		}
	}

	// The exported chains: pick any non-shed request id and assert the
	// full phase taxonomy appears with the right total.
	var want *obs.ReqRecord
	for i := range recs {
		if !recs[i].Shed {
			want = &recs[i]
			break
		}
	}
	if want == nil {
		t.Fatal("every request was shed")
	}
	phases := map[string]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Pid != 2 {
			continue
		}
		if id, ok := ev.Args["req"].(float64); ok && uint64(id) == want.ID {
			phases[ev.Name] += ev.Dur
		}
	}
	var sum float64
	for p := obs.ReqPhase(0); p < obs.NumReqPhases; p++ {
		d, ok := phases[p.String()]
		if !ok {
			t.Fatalf("req %d chain missing phase %q: %v", want.ID, p, phases)
		}
		sum += d
	}
	if e2e := float64(want.TS[obs.NumReqPhases]-want.TS[0]) / 1000.0; sum != e2e {
		t.Fatalf("rendered chain sums to %fµs, end-to-end is %fµs", sum, e2e)
	}
}

// TestTraceDeterminism: two identical runs export byte-identical
// traces — request chains included, whose IDs are flight-ring
// sequence numbers and so follow the lockstep completion order.
func TestTraceDeterminism(t *testing.T) {
	cfg := Config{Shards: 2, Requests: 800, Seed: 5}
	var traces [2]bytes.Buffer
	for i := range traces {
		_, rec, _ := runTraced(t, cfg)
		if len(rec.Requests()) == 0 {
			t.Fatal("traced run retained no request chains")
		}
		if err := rec.WriteTrace(&traces[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
		t.Fatal("identical runs exported different traces")
	}
}

// TestTraceServerCounterTracks covers the serving-layer counter track
// (queue depth): it must appear in an exported trace, and on a single
// shard — where one worker emits every sample — its timestamps must be
// monotone.
func TestTraceServerCounterTracks(t *testing.T) {
	_, _, doc := runTraced(t, Config{Shards: 1, Requests: 3000, Rate: 6e6, Seed: 9})
	const name = "server_queue_depth"
	var ts []float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "C" && ev.Name == name {
			ts = append(ts, ev.Ts)
		}
	}
	if len(ts) == 0 {
		t.Fatalf("counter track %q missing from the trace", name)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i] < ts[i-1] {
			t.Fatalf("track %q timestamps regress at %d: %f < %f", name, i, ts[i], ts[i-1])
		}
	}
}
