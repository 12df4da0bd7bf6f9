package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/metrics"
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
// valid JSON, one named lane per worker, at least one counter track,
// and the same bytes every time.
func TestRunTracedEmitsLoadableTrace(t *testing.T) {
	const threads = 2
	rc := RunConfig{Threads: threads, WarmupNS: 100_000, MeasureNS: 400_000}
	cell := Cell{Medium: core.MediumNVM, Domain: durability.ADR, Algo: core.OrecLazy}
	var buf, again bytes.Buffer
	res, err := RunTraced(cell, rc, tatp.New(tatp.Config{Subscribers: 1024}), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTraced(cell, rc, tatp.New(tatp.Config{Subscribers: 1024}), &again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("two traces of one configuration differ (%d vs %d bytes)", buf.Len(), again.Len())
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

// TestRunTracedOneCounterWriter pins that the machine counter tracks
// have one writer: with a registry attached, every non-page machine
// track appears, each with the same number of events, and that number
// is core's commit-stride cadence — one sample per 32 commits on each
// recorder lane (the setup thread shares lane 0).
func TestRunTracedOneCounterWriter(t *testing.T) {
	const threads, stride = 2, 32
	rc := RunConfig{Threads: threads, WarmupNS: 100_000, MeasureNS: 400_000,
		Metrics: metrics.New(metrics.Config{Serial: true})}
	cell := Cell{Medium: core.MediumNVM, Domain: durability.ADR, Algo: core.OrecLazy}
	var buf bytes.Buffer
	res, err := RunTraced(cell, rc, tatp.New(tatp.Config{Subscribers: 1024}), &buf)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	events := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "C" {
			events[e.Name]++
		}
	}
	tracks := []obs.Track{
		obs.TrackWPQOccupancy, obs.TrackMediaWriteBusy, obs.TrackMediaReadBusy,
		obs.TrackCacheHitRate, obs.TrackMediaWriteXP, obs.TrackMediaReadXP, obs.TrackCommits,
	}
	want := events[obs.TrackCommits.String()]
	for _, tr := range tracks {
		if got := events[tr.String()]; got == 0 || got != want {
			t.Fatalf("track %s has %d events, want %d like every machine track: %v", tr, got, want, events)
		}
	}
	// Each lane samples floor(its commits / stride) times.
	total := int(res.Metrics.Commits)
	if want*stride > total || total >= (want+threads+1)*stride {
		t.Fatalf("%d samples per track for %d commits: not one sample per %d commits per lane", want, total, stride)
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
