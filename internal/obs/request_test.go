package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRequestNilSafety: the disabled configurations must retain
// nothing — a nil recorder and a non-tracing recorder both no-op.
func TestRequestNilSafety(t *testing.T) {
	var nilRec *Recorder
	nilRec.Request(ReqRecord{ID: 1})
	if got := nilRec.Requests(); got != nil {
		t.Fatalf("nil recorder returned records: %v", got)
	}
	r := New(1, false)
	r.Request(ReqRecord{ID: 1})
	if n := r.EventCount(); n != 0 {
		t.Fatalf("non-tracing recorder retained %d events", n)
	}
	if got := r.Requests(); len(got) != 0 {
		t.Fatalf("non-tracing recorder returned records: %v", got)
	}
}

// reqChain builds a well-formed record: monotone boundaries whose
// phase durations telescope to the end-to-end latency.
func reqChain(id uint64, shard int32, base int64) ReqRecord {
	q := ReqRecord{ID: id, Shard: shard, Op: 1}
	widths := [NumReqPhases]int64{0, 400, 120, 900, 300, 0, 10}
	q.TS[0] = base
	for p := 0; p < int(NumReqPhases); p++ {
		q.TS[p+1] = q.TS[p] + widths[p]
	}
	return q
}

// TestRequestExport: request records render as a second trace
// process with one lane per shard and the complete seven-phase chain,
// and the rendered durations sum to the end-to-end latency.
func TestRequestExport(t *testing.T) {
	r := New(1, true)
	r.Request(reqChain(3, 0, 1000))
	r.Request(reqChain(9, 2, 5000))
	if got := len(r.Requests()); got != 2 {
		t.Fatalf("retained %d records, want 2", got)
	}

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}

	lanes := map[int]bool{}
	phases := map[string]float64{} // total rendered µs per phase for req 3
	procNamed := false
	for _, ev := range doc.TraceEvents {
		if ev.Pid != reqPID {
			continue
		}
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procNamed = true
			} else {
				lanes[ev.Tid] = true
			}
		case "X":
			if id, ok := ev.Args["req"].(float64); ok && id == 3 {
				phases[ev.Name] += ev.Dur
			}
		}
	}
	if !procNamed {
		t.Fatal("request process has no process_name metadata")
	}
	for _, tid := range []int{0, 1, 2} {
		if !lanes[tid] {
			t.Fatalf("shard lane %d missing: %v", tid, lanes)
		}
	}
	var sum float64
	for p := ReqPhase(0); p < NumReqPhases; p++ {
		d, ok := phases[p.String()]
		if !ok {
			t.Fatalf("phase %q missing from the exported chain: %v", p, phases)
		}
		sum += d
	}
	q := reqChain(3, 0, 1000)
	if e2e := float64(q.TS[NumReqPhases]-q.TS[0]) / 1000.0; sum != e2e {
		t.Fatalf("phase durations sum to %fµs, end-to-end is %fµs", sum, e2e)
	}
}

// TestRequestAbsentKeepsTraceLean: with no request records the export
// must not mention the request process at all — that is what keeps the
// byte-pinned golden trace stable.
func TestRequestAbsentKeepsTraceLean(t *testing.T) {
	var buf bytes.Buffer
	if err := New(1, true).WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"pid":2`)) {
		t.Fatalf("empty recorder emitted request-process events:\n%s", buf.String())
	}
}
