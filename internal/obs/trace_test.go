package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the trace golden file")

// goldenRecorder builds a small deterministic trace: two worker lanes
// with nested spans, an abort marker, a per-thread counter, and a
// shared counter sample.
func goldenRecorder() *Recorder {
	r := New(2, true)
	w0 := r.Thread(0)
	w0.Span(PhaseTxn, 0, 1500)
	w0.Span(PhaseBegin, 0, 40)
	w0.Span(PhaseValidate, 900, 1000)
	w0.Span(PhaseDrain, 1000, 1200)
	w0.Span(PhaseFenceWait, 1200, 1350)
	w0.Span(PhaseCommit, 1350, 1500)
	w0.Count(TrackCacheHitRate, 1500, 97.5)

	w1 := r.Thread(1)
	w1.Span(PhaseTxn, 100, 2100)
	w1.Span(PhaseAbort, 100, 700)
	w1.Instant(700, "abort:lock-conflict")
	w1.Span(PhaseMediaWait, 1600, 1905)

	r.CountShared(TrackWPQOccupancy, 1350, 12)
	// The registry-backed tracks: cumulative XPLine and commit totals.
	r.CountShared(TrackMediaWriteXP, 1000, 40)
	r.CountShared(TrackMediaWriteXP, 2000, 95)
	r.CountShared(TrackMediaReadXP, 1000, 12)
	r.CountShared(TrackCommits, 2000, 31)
	return r
}

// TestWriteTraceGolden compares the exporter's byte-exact output with
// testdata/trace_golden.json (regenerate with -update-golden).
func TestWriteTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "trace_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace output drifted from golden file\n got: %s\nwant: %s", buf.Bytes(), want)
	}
}

// TestWriteTraceShape decodes the export and checks the structural
// guarantees the acceptance criteria name: valid JSON, one named lane
// per worker, spans, an abort marker, and at least one counter track.
func TestWriteTraceShape(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().WriteTrace(&buf); err != nil {
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
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	lanes := map[int]bool{}
	counters := map[string]bool{}
	var spans, instants int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				lanes[ev.Tid] = true
			}
		case "X":
			spans++
			if ev.Dur <= 0 {
				t.Fatalf("span %q has non-positive dur %f", ev.Name, ev.Dur)
			}
		case "i":
			instants++
		case "C":
			counters[ev.Name] = true
			if _, ok := ev.Args["value"]; !ok {
				t.Fatalf("counter %q has no value arg", ev.Name)
			}
		}
	}
	if len(lanes) != 2 {
		t.Fatalf("want 2 worker lanes, got %v", lanes)
	}
	if spans == 0 || instants == 0 {
		t.Fatalf("spans=%d instants=%d", spans, instants)
	}
	if len(counters) < 2 {
		t.Fatalf("want >=2 counter tracks, got %v", counters)
	}
	for _, track := range []Track{TrackMediaWriteXP, TrackMediaReadXP, TrackCommits} {
		if !counters[track.String()] {
			t.Fatalf("registry track %q missing from export: %v", track, counters)
		}
	}
}
