package harness

import (
	"bytes"
	"strings"
	"testing"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/runner"
)

// serialOpts runs a sweep on one worker with no shard or progress.
var serialOpts = runner.Options{Jobs: 1}

// tinyParams keeps experiment-plumbing tests fast.
func tinyParams() Params {
	return Params{Threads: []int{1, 2}, WarmupNS: 100_000, MeasureNS: 300_000, Small: true}
}

func TestCellSets(t *testing.T) {
	cells := Fig34Cells()
	if len(cells) != 8 {
		t.Fatalf("Fig34Cells = %d, want 8", len(cells))
	}
	labels := map[string]bool{}
	for _, c := range cells {
		labels[c.Label()] = true
	}
	for _, want := range []string{"DRAM_ADR_U", "DRAM_eADR_R", "Optane_ADR_R", "Optane_eADR_U"} {
		if !labels[want] {
			t.Errorf("Fig34Cells missing %s", want)
		}
	}
	if len(Fig67Cells()) != 6 {
		t.Fatalf("Fig67Cells = %d, want 6", len(Fig67Cells()))
	}
	if len(fig8Cells) != 7 {
		t.Fatalf("Fig8Cells = %d, want 7", len(fig8Cells))
	}
	if len(TableIOrIICells(core.OrecLazy)) != 4 {
		t.Fatal("TableIOrIICells != 4 rows")
	}
}

func TestPanelWorkloadsMatchPaper(t *testing.T) {
	names := []string{}
	for _, mk := range PanelWorkloads() {
		names = append(names, mk.Name)
	}
	want := []string{"btree-insert", "btree-mixed", "tpcc-btree", "tpcc-hash", "vacation-low", "vacation-high"}
	if len(names) != len(want) {
		t.Fatalf("panels = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("panel %d = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestRunPanelProducesFigure(t *testing.T) {
	p := tinyParams()
	fig, err := RunPanel("test", TATPWorkload(), []Cell{
		{Medium: core.MediumNVM, Domain: durability.ADR, Algo: core.OrecLazy},
		{Medium: core.MediumNVM, Domain: durability.EADR, Algo: core.OrecLazy},
	}, p, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 || len(fig.Series[0].Results) != 2 {
		t.Fatalf("figure shape wrong: %d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		for _, r := range s.Results {
			if r.Commits <= 0 {
				t.Fatalf("no commits for %s", s.Cell.Label())
			}
		}
	}
	var buf bytes.Buffer
	fig.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "Optane_ADR_R") || !strings.Contains(out, "tatp") {
		t.Fatalf("Print output malformed:\n%s", out)
	}
	buf.Reset()
	fig.PrintRatios(&buf)
	if !strings.Contains(buf.String(), "commits per abort") {
		t.Fatal("PrintRatios output malformed")
	}
}

func TestRunTable3ProducesRows(t *testing.T) {
	p := tinyParams()
	rows, err := RunTable3(p, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 { // 4 workloads x 2 algorithms
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.Base <= 0 || r.NoFence <= 0 {
			t.Fatalf("empty row: %+v", r)
		}
	}
}

func TestRunFig8SmallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 sweep in -short mode")
	}
	p := Params{WarmupNS: 100_000, MeasureNS: 300_000, Small: true}
	points, err := RunFig8(p, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(Fig8ItemCounts(true)) {
		t.Fatalf("points = %d", len(points))
	}
	// The L3 cliff: the smallest working set must beat the largest for
	// the eADR redo curve.
	small := points[0].Results["Optane_eADR_R"]
	big := points[len(points)-1].Results["Optane_eADR_R"]
	if small <= big {
		t.Fatalf("no working-set cliff: %f <= %f", small, big)
	}
	var buf bytes.Buffer
	PrintFig8(points, &buf)
	if !strings.Contains(buf.String(), "Figure 8") {
		t.Fatal("PrintFig8 malformed")
	}
}

func TestQuickAndFullParams(t *testing.T) {
	q, f := QuickParams(), FullParams()
	if !q.Small || f.Small {
		t.Fatal("Small flags wrong")
	}
	if len(f.Threads) != 6 || f.Threads[5] != 32 {
		t.Fatalf("full thread axis = %v, want the paper's {1..32}", f.Threads)
	}
	if q.MeasureNS >= f.MeasureNS {
		t.Fatal("quick mode not quicker")
	}
}

func TestBuildTMAppliesOverrides(t *testing.T) {
	w := TATPWorkload().Make(tinyParams())
	tm, err := BuildTM(Cell{Medium: core.MediumNVM, Domain: durability.ADR, Algo: core.OrecLazy},
		RunConfig{Threads: 2, WPQDepth: 16, L3Lines: 2048, MaxLog: 256}, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := tm.Bus().Controller().Config().Depth; got != 16 {
		t.Fatalf("WPQ depth = %d, want 16", got)
	}
	if got := tm.Config().MaxLogEntries; got != 256 {
		t.Fatalf("max log = %d, want 256", got)
	}
}

func TestLatencyHistogramPopulated(t *testing.T) {
	p := tinyParams()
	res, err := Run(Cell{Medium: core.MediumNVM, Domain: durability.ADR, Algo: core.OrecLazy},
		RunConfig{Threads: 2, WarmupNS: p.WarmupNS, MeasureNS: p.MeasureNS},
		TATPWorkload().Make(p))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count() == 0 {
		t.Fatal("no latency samples recorded")
	}
	p50 := res.Latency.Percentile(50)
	if p50 <= 0 || p50 > 1_000_000 {
		t.Fatalf("p50 latency = %d ns, implausible", p50)
	}
	if res.Latency.Percentile(99) < p50 {
		t.Fatal("p99 < p50")
	}
}

func TestWindowSizeInsensitivity(t *testing.T) {
	// The virtual-time methodology must not depend on the barrier
	// window: throughput at 0.5x and 2x the default window should be
	// within a modest band of the default. This validates that results
	// come from the model, not the scheduler.
	p := tinyParams()
	run := func(window int64) float64 {
		w := TATPWorkload().Make(p)
		tm, err := core.New(core.Config{
			Algo: core.OrecLazy, Medium: core.MediumNVM, Domain: durability.ADR,
			Threads: 4, HeapWords: 1 << 21, WindowNS: window, OrecSize: 1 << 14,
		})
		if err != nil {
			t.Fatal(err)
		}
		cell := Cell{Medium: core.MediumNVM, Domain: durability.ADR, Algo: core.OrecLazy}
		rc := RunConfig{Threads: 4, WarmupNS: p.WarmupNS, MeasureNS: p.MeasureNS}
		return RunOn(tm, cell, rc, w).ThroughputOps
	}
	base := run(1000)
	for _, win := range []int64{500, 2000} {
		got := run(win)
		ratio := got / base
		if ratio < 0.7 || ratio > 1.4 {
			t.Fatalf("window %d ns shifted throughput by %0.2fx (base %.0f, got %.0f)",
				win, ratio, base, got)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	p := tinyParams()
	fig, err := RunPanel("Figure X", TATPWorkload(), []Cell{
		{Medium: core.MediumNVM, Domain: durability.ADR, Algo: core.OrecLazy},
	}, p, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(p.Threads) {
		t.Fatalf("CSV rows = %d, want header + %d points:\n%s", len(lines), len(p.Threads), buf.String())
	}
	if !strings.HasPrefix(lines[0], "figure,workload,curve,threads") {
		t.Fatalf("CSV header malformed: %s", lines[0])
	}
	if !strings.Contains(lines[1], "Optane_ADR_R") {
		t.Fatalf("CSV row malformed: %s", lines[1])
	}
}

func TestRunTable12Smoke(t *testing.T) {
	p := Params{Threads: []int{2}, WarmupNS: 100_000, MeasureNS: 300_000, Small: true}
	fig, err := RunTable12(core.OrecLazy, p, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	if fig.Name != "Table I" || len(fig.Series) != 4 {
		t.Fatalf("table shape: %s with %d series", fig.Name, len(fig.Series))
	}
	fig2, err := RunTable12(core.OrecEager, p, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	if fig2.Name != "Table II" {
		t.Fatalf("undo table name = %s", fig2.Name)
	}
}

func TestPanelWorkloadsConstructAtBothScales(t *testing.T) {
	for _, small := range []bool{true, false} {
		p := Params{Small: small}
		for _, mk := range PanelWorkloads() {
			if w := mk.Make(p); w == nil || w.Name() == "" {
				t.Fatalf("panel %s failed to construct (small=%v)", mk.Name, small)
			}
		}
	}
	if len(Fig8ItemCounts(false)) <= len(Fig8ItemCounts(true)) {
		t.Fatal("full Fig8 sweep not larger than quick sweep")
	}
}
