package harness

// counters.go turns counters-enabled sweep results into the two
// user-facing forms of the hardware-counter model: the aligned
// per-cell counter/attribution tables (`ptmbench -counters`,
// `ptmtables -counters`) and the diffable metrics-report JSON artifact
// (`-metricsjson`, consumed by cmd/ptmstat).

import (
	"fmt"
	"io"

	"goptm/internal/metrics"
)

// CellMetrics flattens the figure's counters-enabled points into
// report cells, in sweep order. Points sharded away, or measured
// without the breakdown recorder the attribution shares come from
// (Params.Counters attaches it), are skipped.
func (f Figure) CellMetrics() []metrics.CellMetrics {
	var out []metrics.CellMetrics
	for _, s := range f.Series {
		for i, r := range s.Results {
			if r.Workload == "" || r.Breakdown.Empty() {
				continue
			}
			c := metrics.CellMetrics{
				Figure:   f.Name,
				Workload: f.Workload,
				Cell:     s.Cell.Label(),
				Threads:  f.Threads[i],
				Counters: r.Metrics,
			}
			b := r.Breakdown
			c.Attribution = metrics.AttributionFromBreakdown(&b)
			metrics.DeriveCell(&c)
			out = append(out, c)
		}
	}
	return out
}

// AppendMetrics appends the figure's counters-enabled points to a
// metrics report.
func AppendMetrics(rep *metrics.Report, f Figure) {
	rep.Cells = append(rep.Cells, f.CellMetrics()...)
}

// NewReport returns an empty metrics report with the current schema
// stamp.
func NewReport() *metrics.Report {
	return &metrics.Report{Schema: metrics.ReportSchema}
}

// PrintCounters renders the figure's hardware-counter report: one row
// per (cell, threads) point with the media-amplification ratios, the
// XPBuffer coalescing rate, durable log volume per commit, and the
// commit-latency attribution (shares of whole-transaction time; bus
// shares overlap protocol phases). "dominant" names the largest
// bus-side wait — what commit latency is actually limited by. Empty
// unless the sweep ran with counters enabled.
func (f Figure) PrintCounters(w io.Writer) {
	cells := f.CellMetrics()
	if len(cells) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s — %s (hardware counters)\n", f.Name, f.Workload)
	fmt.Fprintf(w, "%-26s %3s %9s %6s %6s %7s %8s %7s %7s %7s %6s %s\n",
		"curve", "thr", "commits", "w-amp", "r-amp", "xpbuf%", "logB/c",
		"stall%", "fence%", "media%", "abrt%", "dominant")
	for i := range cells {
		c := &cells[i]
		logPerCommit := float64(0)
		if c.Counters.Commits > 0 {
			logPerCommit = float64(c.Counters.LogBytes) / float64(c.Counters.Commits)
		}
		dom, _ := c.Attribution.Dominant()
		fmt.Fprintf(w, "%-26s %3d %9d %6.2f %6.3f %7.1f %8.1f %7.1f %7.1f %7.1f %6.1f %s\n",
			c.Cell, c.Threads, c.Counters.Commits,
			c.Derived.WriteAmp, c.Derived.ReadAmp, c.Derived.XPBufWriteHitPct,
			logPerCommit,
			100*c.Attribution.WPQStallShare, 100*c.Attribution.FenceWaitShare,
			100*c.Attribution.MediaWaitShare, 100*c.Attribution.AbortShare,
			dom)
	}
}
