package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/obs"
	"goptm/internal/workload/tatp"
)

func observedRun(t *testing.T, dom durability.Domain, trace bool) Result {
	t.Helper()
	const threads = 4
	rc := RunConfig{
		Threads:   threads,
		WarmupNS:  200_000,
		MeasureNS: 1_000_000,
		Recorder:  obs.New(threads, trace),
	}
	cell := Cell{Medium: core.MediumNVM, Domain: dom, Algo: core.OrecLazy}
	res, err := Run(cell, rc, tatp.New(tatp.Config{Subscribers: 2048}))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBreakdownADRFenceWaitExceedsEADR is the paper's core observation
// made visible by the breakdown: ADR transactions spend real time in
// fence waits, eADR transactions spend none (flushes and fences are
// elided).
func TestBreakdownADRFenceWaitExceedsEADR(t *testing.T) {
	adr := observedRun(t, durability.ADR, false).Breakdown
	eadr := observedRun(t, durability.EADR, false).Breakdown

	if adr.NS[obs.PhaseTxn] == 0 || eadr.NS[obs.PhaseTxn] == 0 {
		t.Fatal("no transaction time recorded")
	}
	if adr.NS[obs.PhaseFenceWait] == 0 {
		t.Fatal("ADR run recorded no fence-wait time")
	}
	if eadr.NS[obs.PhaseFenceWait] != 0 {
		t.Fatalf("eADR run recorded %d ns of fence-wait; the domain elides fences",
			eadr.NS[obs.PhaseFenceWait])
	}
	if adr.Share(obs.PhaseFenceWait) <= eadr.Share(obs.PhaseFenceWait) {
		t.Fatalf("fence-wait share: ADR %.3f <= eADR %.3f",
			adr.Share(obs.PhaseFenceWait), eadr.Share(obs.PhaseFenceWait))
	}
}

// TestRunTracedEmitsLoadableTrace checks the CLI-facing trace path:
// valid JSON, one named lane per worker, and at least one counter
// track.
func TestRunTracedEmitsLoadableTrace(t *testing.T) {
	const threads = 2
	rc := RunConfig{Threads: threads, WarmupNS: 100_000, MeasureNS: 400_000}
	cell := Cell{Medium: core.MediumNVM, Domain: durability.ADR, Algo: core.OrecLazy}
	var buf bytes.Buffer
	res, err := RunTraced(cell, rc, tatp.New(tatp.Config{Subscribers: 1024}), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatal("traced run committed nothing")
	}
	if res.Breakdown.Empty() {
		t.Fatal("traced run has an empty breakdown")
	}

	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	lanes := map[int]bool{}
	counters := map[string]bool{}
	spans := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				lanes[e.TID] = true
			}
		case "C":
			counters[e.Name] = true
		case "X":
			spans++
		}
	}
	if len(lanes) != threads {
		t.Fatalf("trace has %d named lanes, want %d", len(lanes), threads)
	}
	if len(counters) == 0 {
		t.Fatal("trace has no counter tracks")
	}
	if spans == 0 {
		t.Fatal("trace has no spans")
	}
}

// TestFigureBreakdownTable checks the ptmbench rendering path end to
// end: an observed panel prints one breakdown row per curve.
func TestFigureBreakdownTable(t *testing.T) {
	p := Params{Threads: []int{2}, WarmupNS: 100_000, MeasureNS: 400_000, Small: true, Observe: true}
	cells := []Cell{
		{Medium: core.MediumNVM, Domain: durability.ADR, Algo: core.OrecLazy},
		{Medium: core.MediumNVM, Domain: durability.EADR, Algo: core.OrecLazy},
	}
	fig, err := RunPanel("test", TATPWorkload(), cells, p, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.PrintBreakdown(&buf)
	out := buf.String()
	for _, want := range []string{"fence-wait", "Optane_ADR_R", "Optane_eADR_R"} {
		if !strings.Contains(out, want) {
			t.Fatalf("breakdown table missing %q:\n%s", want, out)
		}
	}
	// Without Observe the table must be silent (no recorder attached).
	p.Observe = false
	fig2, err := RunPanel("test", TATPWorkload(), cells[:1], p, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	fig2.PrintBreakdown(&buf)
	if buf.Len() != 0 {
		t.Fatalf("unobserved panel printed a breakdown:\n%s", buf.String())
	}
}
