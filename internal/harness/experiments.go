package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/obs"
	"goptm/internal/workload"
	"goptm/internal/workload/btreebench"
	"goptm/internal/workload/tatp"
	"goptm/internal/workload/tpcc"
	"goptm/internal/workload/vacation"
)

// Params scales an experiment between a quick smoke run and the full
// paper-shaped sweep.
type Params struct {
	Threads   []int
	WarmupNS  int64
	MeasureNS int64
	Small     bool // shrink workload datasets for smoke runs
	// Observe attaches a breakdown recorder to every measurement so
	// figures can print the per-phase overhead decomposition. It adds a
	// few integer ops per recorded span — leave it off for
	// throughput-comparison runs.
	Observe bool
	// Counters attaches the hardware-counter model to every measurement
	// (PMWatch-style media/WPQ telemetry, virtual-time series, and the
	// per-cell attribution report). Implies the breakdown recorder,
	// which the attribution shares come from. Counting never advances
	// virtual time: all measured numbers are identical with it on or
	// off.
	Counters bool
}

// QuickParams runs in seconds per panel; FullParams reproduces the
// paper's thread axis.
func QuickParams() Params {
	return Params{Threads: []int{1, 4, 16, 32}, WarmupNS: 300_000, MeasureNS: 1_500_000, Small: true}
}

// FullParams matches the paper's thread counts {1..32} with longer
// virtual measurement windows.
func FullParams() Params {
	return Params{Threads: []int{1, 2, 4, 8, 16, 32}, WarmupNS: 2_000_000, MeasureNS: 8_000_000}
}

// WorkloadMaker builds a fresh workload instance per measurement (a
// workload cannot be reused across TMs).
type WorkloadMaker struct {
	Name string
	Make func(p Params) workload.Workload
}

// PanelWorkloads returns the six panels of Figures 3 and 6, in the
// paper's order.
func PanelWorkloads() []WorkloadMaker {
	return []WorkloadMaker{
		{"btree-insert", func(p Params) workload.Workload {
			return btreebench.New(btreebench.Config{Mode: btreebench.InsertOnly})
		}},
		{"btree-mixed", func(p Params) workload.Workload {
			// The paper uses a 2^21 key range against a 32 MB L3; our
			// L3 is scaled ~32x down, so the key range scales with it
			// (working set ~2x the L3, as in the paper). An unscaled
			// range would make tree-traversal reads dominate and
			// dilute the flush/fence effects under study.
			kr := uint64(1 << 16)
			if p.Small {
				kr = 1 << 15
			}
			return btreebench.New(btreebench.Config{Mode: btreebench.Mixed, KeyRange: kr})
		}},
		{"tpcc-btree", func(p Params) workload.Workload {
			return tpcc.New(tpcc.Config{Kind: tpcc.BTreeIndex})
		}},
		{"tpcc-hash", func(p Params) workload.Workload {
			return tpcc.New(tpcc.Config{Kind: tpcc.HashIndex})
		}},
		{"vacation-low", func(p Params) workload.Workload {
			rel := 16384
			if p.Small {
				rel = 4096
			}
			return vacation.New(vacation.Config{Contention: vacation.Low, Relations: rel})
		}},
		{"vacation-high", func(p Params) workload.Workload {
			return vacation.New(vacation.Config{Contention: vacation.High})
		}},
	}
}

// TATPWorkload returns the Figure 4/7 workload.
func TATPWorkload() WorkloadMaker {
	return WorkloadMaker{"tatp", func(p Params) workload.Workload {
		subs := 16384
		if p.Small {
			subs = 8192
		}
		return tatp.New(tatp.Config{Subscribers: subs})
	}}
}

// Fig34Cells returns the eight curves of Figures 3 and 4:
// {DRAM, Optane} x {ADR, eADR} x {undo, redo}.
func Fig34Cells() []Cell {
	var cells []Cell
	for _, medium := range []core.Medium{core.MediumDRAM, core.MediumNVM} {
		for _, dom := range []durability.Domain{durability.ADR, durability.EADR} {
			for _, algo := range []core.Algo{core.OrecEager, core.OrecLazy} {
				cells = append(cells, Cell{Medium: medium, Domain: dom, Algo: algo})
			}
		}
	}
	return cells
}

// Fig67Cells returns the six curves of Figures 6 and 7: the DRAM
// reference, eADR with both algorithms, PDRAM with both algorithms,
// and redo-based PDRAM-Lite.
func Fig67Cells() []Cell {
	return []Cell{
		{Medium: core.MediumDRAM, Domain: durability.EADR, Algo: core.OrecLazy},
		{Medium: core.MediumNVM, Domain: durability.EADR, Algo: core.OrecEager},
		{Medium: core.MediumNVM, Domain: durability.EADR, Algo: core.OrecLazy},
		{Medium: core.MediumNVM, Domain: durability.PDRAM, Algo: core.OrecEager},
		{Medium: core.MediumNVM, Domain: durability.PDRAM, Algo: core.OrecLazy},
		{Medium: core.MediumNVM, Domain: durability.PDRAMLite, Algo: core.OrecLazy},
	}
}

// Series is one curve of a figure.
type Series struct {
	Cell    Cell
	Results []Result // one per thread count
}

// Figure is one rendered panel.
type Figure struct {
	Name     string
	Workload string
	Threads  []int
	Series   []Series
}

// Print renders the figure as an aligned text table (threads across,
// throughput in kops/s), the form the repository's EXPERIMENTS.md
// records.
func (f Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s (throughput, kilo-commits per virtual second)\n", f.Name, f.Workload)
	fmt.Fprintf(w, "%-26s", "curve")
	for _, t := range f.Threads {
		fmt.Fprintf(w, "%10d", t)
	}
	fmt.Fprintln(w)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%-26s", s.Cell.Label())
		for _, r := range s.Results {
			if r.Workload == "" { // sharded away
				fmt.Fprintf(w, "%10s", "-")
				continue
			}
			fmt.Fprintf(w, "%10.0f", r.ThroughputOps/1000)
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV emits the figure as machine-readable CSV: one row per
// (curve, thread-count) point with throughput, ratio, latency
// percentiles, and the full latency histogram as embedded JSON.
// Points sharded away to another machine are omitted.
func (f Figure) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"figure", "workload", "curve", "threads",
		"throughput_ops", "commits", "aborts", "commits_per_abort",
		"latency_p50_ns", "latency_p99_ns", "latency_hist"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range f.Series {
		for i, r := range s.Results {
			if r.Workload == "" { // sharded away
				continue
			}
			hist, err := json.Marshal(&r.Latency)
			if err != nil {
				return err
			}
			rec := []string{
				f.Name, f.Workload, s.Cell.Label(), strconv.Itoa(f.Threads[i]),
				strconv.FormatFloat(r.ThroughputOps, 'f', 0, 64),
				strconv.FormatInt(r.Commits, 10),
				strconv.FormatInt(r.Aborts, 10),
				strconv.FormatFloat(r.CommitsPerAbort, 'f', 2, 64),
				strconv.FormatInt(r.Latency.P50(), 10),
				strconv.FormatInt(r.Latency.P99(), 10),
				string(hist),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// PrintBreakdown renders the figure's phase-overhead decomposition at
// its highest thread count: one row per curve, each phase as a share
// of total transaction time (the paper's §III-B style "where does the
// time go" view). Empty unless the panel ran with Params.Observe.
func (f Figure) PrintBreakdown(w io.Writer) {
	var labels []string
	var rows []*obs.Breakdown
	for i := range f.Series {
		s := &f.Series[i]
		if len(s.Results) == 0 {
			continue
		}
		b := s.Results[len(s.Results)-1].Breakdown
		if b.Empty() {
			continue
		}
		labels = append(labels, s.Cell.Label())
		rows = append(rows, &b)
	}
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s — %s (phase breakdown at %d threads)\n",
		f.Name, f.Workload, f.Threads[len(f.Threads)-1])
	obs.WriteTable(w, labels, rows)
	f.printLatencyQuantiles(w)
}

// printLatencyQuantiles renders per-curve committed-transaction latency
// quantiles at the figure's highest thread count (log2-bucket derived:
// each value is an upper bound within 2x of the true quantile, clamped
// to the observed maximum).
func (f Figure) printLatencyQuantiles(w io.Writer) {
	var printed bool
	for i := range f.Series {
		s := &f.Series[i]
		if len(s.Results) == 0 {
			continue
		}
		r := &s.Results[len(s.Results)-1]
		if r.Latency.Count() == 0 {
			continue
		}
		if !printed {
			fmt.Fprintf(w, "\ntxn latency quantiles at %d threads (virtual µs; log2-bucket upper bounds)\n",
				f.Threads[len(f.Threads)-1])
			fmt.Fprintf(w, "%-26s %9s %9s %9s %9s %9s\n", "curve", "mean", "p50", "p90", "p99", "max")
			printed = true
		}
		us := func(ns int64) float64 { return float64(ns) / 1000 }
		fmt.Fprintf(w, "%-26s %9.1f %9.1f %9.1f %9.1f %9.1f\n",
			s.Cell.Label(), r.Latency.Mean()/1000,
			us(r.Latency.P50()), us(r.Latency.P90()), us(r.Latency.P99()), us(r.Latency.Max()))
	}
}

// PrintRatios renders the commits-per-abort view of the figure (the
// form of Tables I and II).
func (f Figure) PrintRatios(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s (commits per abort)\n", f.Name, f.Workload)
	fmt.Fprintf(w, "%-26s", "curve")
	for _, t := range f.Threads {
		fmt.Fprintf(w, "%10d", t)
	}
	fmt.Fprintln(w)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%-26s", s.Cell.Label())
		for _, r := range s.Results {
			if r.Workload == "" { // sharded away
				fmt.Fprintf(w, "%10s", "-")
				continue
			}
			fmt.Fprintf(w, "%10.2f", r.CommitsPerAbort)
		}
		fmt.Fprintln(w)
	}
}

// TableIOrIICells returns the four rows of Tables I and II.
func TableIOrIICells(algo core.Algo) []Cell {
	return []Cell{
		{Medium: core.MediumDRAM, Domain: durability.ADR, Algo: algo},
		{Medium: core.MediumDRAM, Domain: durability.EADR, Algo: algo},
		{Medium: core.MediumNVM, Domain: durability.ADR, Algo: algo},
		{Medium: core.MediumNVM, Domain: durability.EADR, Algo: algo},
	}
}

// table12Maker builds the Table I/II workload.
func table12Maker() WorkloadMaker {
	return WorkloadMaker{"tpcc-hash", func(p Params) workload.Workload {
		return tpcc.New(tpcc.Config{Kind: tpcc.HashIndex})
	}}
}

// Table3Row is one cell of Table III: the throughput gain from
// (incorrectly) removing fences from the ADR write instrumentation.
type Table3Row struct {
	Workload string
	Algo     core.Algo
	Base     float64
	NoFence  float64
	Speedup  float64 // percent
}

// table3Makers builds the four Table III workloads.
func table3Makers() []WorkloadMaker {
	return []WorkloadMaker{
		{"tpcc-hash", func(p Params) workload.Workload {
			return tpcc.New(tpcc.Config{Kind: tpcc.HashIndex})
		}},
		TATPWorkload(),
		{"vacation-low", func(p Params) workload.Workload {
			rel := 16384
			if p.Small {
				rel = 4096
			}
			return vacation.New(vacation.Config{Contention: vacation.Low, Relations: rel})
		}},
		{"vacation-high", func(p Params) workload.Workload {
			return vacation.New(vacation.Config{Contention: vacation.High})
		}},
	}
}

// Fig8Point is one working-set measurement of Figure 8.
type Fig8Point struct {
	Items   int
	WSBytes uint64
	Results map[string]float64 // cell label -> requests per second
}

// fig8Cells is the Figure 8 curve list, hoisted so the sweep, the CSV
// writer, and the renderer all iterate the same slice.
var fig8Cells = []Cell{
	{Medium: core.MediumDRAM, Domain: durability.EADR, Algo: core.OrecLazy},
	{Medium: core.MediumNVM, Domain: durability.ADR, Algo: core.OrecEager},
	{Medium: core.MediumNVM, Domain: durability.ADR, Algo: core.OrecLazy},
	{Medium: core.MediumNVM, Domain: durability.EADR, Algo: core.OrecEager},
	{Medium: core.MediumNVM, Domain: durability.EADR, Algo: core.OrecLazy},
	{Medium: core.MediumNVM, Domain: durability.PDRAM, Algo: core.OrecLazy},
	{Medium: core.MediumNVM, Domain: durability.PDRAMLite, Algo: core.OrecLazy},
}

// Fig8 capacity model (scaled ~1000x down from the paper's machine;
// see EXPERIMENTS.md): a 256 KB L3 and a 4 MB DRAM page cache. The
// item counts sweep the working set across both capacities, mirroring
// the paper's 32 MB / 32..320 GB X axis.
const (
	fig8L3Lines    = 4096 // 256 KB
	fig8PageFrames = 1024 // 4 MB of DRAM cache
)

// Fig8ItemCounts returns the working-set sweep (items of ~1.2 KB).
func Fig8ItemCounts(small bool) []int {
	if small {
		return []int{128, 1024, 4096, 8192}
	}
	return []int{128, 1024, 2048, 3072, 4096, 6144, 8192}
}

// WriteFig8CSV emits the working-set sweep as CSV. Points sharded
// away to another machine are omitted.
func WriteFig8CSV(points []Fig8Point, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"figure", "items", "working_set_bytes", "curve", "requests_per_s"}); err != nil {
		return err
	}
	for _, p := range points {
		for _, cell := range fig8Cells {
			rps, ok := p.Results[cell.Label()]
			if !ok { // sharded away
				continue
			}
			rec := []string{
				"Figure 8", strconv.Itoa(p.Items), strconv.FormatUint(p.WSBytes, 10),
				cell.Label(), strconv.FormatFloat(rps, 'f', 0, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// PrintFig8 renders the working-set sweep.
func PrintFig8(points []Fig8Point, w io.Writer) {
	fmt.Fprintf(w, "\nFigure 8 — memcached, single worker (requests per virtual second)\n")
	fmt.Fprintf(w, "%-26s", "curve \\ working set")
	for _, p := range points {
		fmt.Fprintf(w, "%10s", fmt.Sprintf("%dKB", p.WSBytes/1024))
	}
	fmt.Fprintln(w)
	for _, cell := range fig8Cells {
		fmt.Fprintf(w, "%-26s", cell.Label())
		for _, p := range points {
			rps, ok := p.Results[cell.Label()]
			if !ok { // sharded away
				fmt.Fprintf(w, "%10s", "-")
				continue
			}
			fmt.Fprintf(w, "%10.0f", rps/1000)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(values in kilo-requests/s; L3 = 256 KB, DRAM page cache = 4 MB)")
}
