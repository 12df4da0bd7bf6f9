package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"testing"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/metrics"
)

func goldenParams() Params {
	return Params{Threads: []int{1, 2}, WarmupNS: 100_000, MeasureNS: 500_000, Small: true}
}

func goldenCells() []Cell {
	return []Cell{
		{Medium: core.MediumNVM, Domain: durability.ADR, Algo: core.OrecLazy},
		{Medium: core.MediumNVM, Domain: durability.EADR, Algo: core.OrecEager},
	}
}

// TestGoldenSweepCountersByteIdentical is the acceptance pin for the
// counter model: running the golden sweep WITH the counter registry
// attached must render byte-for-byte the same figure (same goldenHash)
// as running without it. Counting is pure accounting — if it ever
// moves virtual time, this hash moves.
func TestGoldenSweepCountersByteIdentical(t *testing.T) {
	p := goldenParams()
	p.Counters = true
	fig, err := RunPanel("Golden", TATPWorkload(), goldenCells(), p, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.Print(&buf)
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenHash {
		t.Fatalf("counters-enabled sweep output diverged from golden hash:\n got %s\nwant %s\noutput:\n%s",
			got, goldenHash, buf.String())
	}
}

// TestCountersOnOffEquality checks every measured number of every
// point is identical with and without the registry — not just the
// rendered figure.
func TestCountersOnOffEquality(t *testing.T) {
	off, err := RunPanel("Golden", TATPWorkload(), goldenCells(), goldenParams(), serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	p := goldenParams()
	p.Counters = true
	on, err := RunPanel("Golden", TATPWorkload(), goldenCells(), p, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range off.Series {
		for j := range off.Series[i].Results {
			a, b := off.Series[i].Results[j], on.Series[i].Results[j]
			if a.Commits != b.Commits || a.Aborts != b.Aborts ||
				a.ThroughputOps != b.ThroughputOps || a.Metrics.WPQStallNS != b.Metrics.WPQStallNS {
				t.Fatalf("point %s/t%d differs counters on vs off:\noff %+v\non  %+v",
					off.Series[i].Cell.Label(), off.Threads[j], a, b)
			}
			// The always-on component counters agree; only the media
			// model and the time series need the registry.
			if a.Metrics.NVMStores != b.Metrics.NVMStores || a.Metrics.MediaWriteXPLines != 0 ||
				b.Metrics.MediaWriteXPLines == 0 || len(a.Metrics.Samples) != 0 {
				t.Fatalf("point %s/t%d snapshots: off %+v\non %+v",
					on.Series[i].Cell.Label(), on.Threads[j], a.Metrics, b.Metrics)
			}
			// Registry commits are cumulative (setup + warmup + window),
			// so they bound the measured window count from above.
			if b.Metrics.Commits < b.Commits {
				t.Fatalf("registry commits %d below measured %d", b.Metrics.Commits, b.Commits)
			}
		}
	}
}

// TestCounterSnapshotSanity checks the assembled snapshot of a
// counters-enabled sweep point holds together: device traffic present,
// media traffic consistent with the XPBuffer accounting, amplification
// derived, time series sampled across the window.
func TestCounterSnapshotSanity(t *testing.T) {
	p := goldenParams()
	p.Counters = true
	fig, err := RunPanel("Golden", TATPWorkload(), goldenCells()[:1], p, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0].Results[0].Metrics
	if s.Commits == 0 || s.NVMStores == 0 || s.NVMLoads == 0 {
		t.Fatalf("core traffic missing: %+v", s)
	}
	if s.MediaWriteXPLines == 0 || s.WriteAmp <= 0 {
		t.Fatalf("media write model silent: xplines=%d amp=%v", s.MediaWriteXPLines, s.WriteAmp)
	}
	if s.WPQAccepts == 0 {
		t.Fatal("no WPQ accepts recorded")
	}
	if s.WPQMaxOccupancy == 0 {
		t.Fatal("max occupancy not tracked despite registry attached")
	}
	if s.CacheHitL1 == 0 {
		t.Fatal("cache hit counters silent")
	}
	if s.LogBytes == 0 {
		t.Fatal("log volume counter silent")
	}
	if len(s.Samples) == 0 {
		t.Fatal("virtual-time series empty")
	}
	last := s.Samples[len(s.Samples)-1]
	if last.VT <= s.Samples[0].VT && len(s.Samples) > 1 {
		t.Fatalf("series not monotone: %+v", s.Samples)
	}
	if last.Commits == 0 {
		t.Fatalf("final sample has no commits: %+v", last)
	}
}

// TestADR32WriteAmpAndStall is the paper-facing acceptance check: on
// the 32-thread Optane ADR cell the counters must show write
// amplification above 1 (stores are scattered 8 B words against a
// 256 B media granularity) and the WPQ stall as the dominant bus-side
// wait — the counter-level view of why ADR collapses at high thread
// counts (§III-B).
func TestADR32WriteAmpAndStall(t *testing.T) {
	p := goldenParams()
	p.Counters = true
	p.Threads = []int{32}
	cells := []Cell{{Medium: core.MediumNVM, Domain: durability.ADR, Algo: core.OrecLazy}}
	fig, err := RunPanel("ADR32", TATPWorkload(), cells, p, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	cm := fig.CellMetrics()
	if len(cm) != 1 {
		t.Fatalf("cells = %d, want 1", len(cm))
	}
	c := cm[0]
	if c.Derived.WriteAmp <= 1 {
		t.Fatalf("ADR@32 write amplification = %v, want > 1", c.Derived.WriteAmp)
	}
	dom, share := c.Attribution.Dominant()
	if dom != "wpq-stall" {
		t.Fatalf("ADR@32 dominant wait = %s (%.1f%%), want wpq-stall\nattribution: %+v",
			dom, 100*share, c.Attribution)
	}
	if share == 0 {
		t.Fatal("dominant share is zero")
	}
}

// TestFigureReportArtifact exercises the full artifact path: figure ->
// report -> file -> validator -> self-diff.
func TestFigureReportArtifact(t *testing.T) {
	p := goldenParams()
	p.Counters = true
	fig, err := RunPanel("Golden", TATPWorkload(), goldenCells(), p, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport()
	AppendMetrics(rep, fig)
	if want := len(fig.Series) * len(fig.Threads); len(rep.Cells) != want {
		t.Fatalf("report cells = %d, want %d", len(rep.Cells), want)
	}

	path := filepath.Join(t.TempDir(), "report.json")
	if err := metrics.WriteReportFile(path, rep); err != nil {
		t.Fatal(err)
	}
	loaded, err := metrics.LoadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range metrics.Diff(rep, loaded, 0) {
		if e.Exceeds {
			t.Fatalf("report does not self-diff clean: %+v", e)
		}
	}

	// The snapshot inside must round-trip exactly.
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	if err := enc.Encode(rep.Cells[0].Counters); err != nil {
		t.Fatal(err)
	}
	var back metrics.Snapshot
	if err := json.Unmarshal(out.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Commits != rep.Cells[0].Counters.Commits || back.WriteAmp != rep.Cells[0].Counters.WriteAmp {
		t.Fatal("snapshot JSON round trip lost fields")
	}
}

// TestPrintCounters smoke-checks the rendered counter table.
func TestPrintCounters(t *testing.T) {
	p := goldenParams()
	p.Counters = true
	fig, err := RunPanel("Golden", TATPWorkload(), goldenCells()[:1], p, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.PrintCounters(&buf)
	out := buf.String()
	for _, want := range []string{"hardware counters", "w-amp", "dominant", "Optane_ADR_R"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("counter table missing %q:\n%s", want, out)
		}
	}
	// Without counters the table renders nothing.
	off, err := RunPanel("Golden", TATPWorkload(), goldenCells()[:1], goldenParams(), serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	var empty bytes.Buffer
	off.PrintCounters(&empty)
	if empty.Len() != 0 {
		t.Fatalf("counters-off figure rendered a table:\n%s", empty.String())
	}
}
