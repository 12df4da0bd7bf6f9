// Command ptmbench regenerates the paper's figures on the simulated
// Optane machine: throughput-vs-threads panels for Figures 3, 4, 6,
// and 7, and the memcached working-set sweep of Figure 8.
//
// Usage:
//
//	ptmbench -fig 3            # six panels, 8 curves each (quick scale)
//	ptmbench -fig 4 -full      # TATP at the paper's full thread axis
//	ptmbench -fig 8            # working-set sweep
//	ptmbench -all              # everything
//
// Output is an aligned text table per panel; -v streams per-point
// progress with an ETA. Quick mode (default) completes in minutes;
// -full runs the paper's {1,2,4,8,16,32} thread axis with longer
// windows; -smoke is a seconds-scale panel for CI.
//
// Execution (see docs/RUNNING.md):
//
//	ptmbench -fig 3 -jobs 8           # 8 cells simulate concurrently
//	ptmbench -fig 3 -shard 1/4        # CI split: this machine's quarter
//
// Every sweep runs under the lockstep virtual-time scheduler, so the
// rendered tables and CSV are byte-identical at any -jobs value.
//
// Observability:
//
//	ptmbench -fig 4 -breakdown     # append per-phase overhead tables
//	ptmbench -fig 4 -counters      # append hardware-counter tables
//	                               # (write/read amplification, XPBuffer
//	                               # hit rate, commit-latency attribution)
//	ptmbench -fig 4 -counters -metricsjson m.json # diffable metrics
//	                               # report artifact (see cmd/ptmstat)
//	ptmbench -fig 3 -trace out.json # trace ONE tiny point of the figure
//	                                # and write Perfetto JSON (no sweep)
//	ptmbench -fig 4 -sweeptrace sweep.json # record the sweep's own pace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/harness"
	"goptm/internal/metrics"
	"goptm/internal/obs"
	"goptm/internal/runner"
	"goptm/internal/workload"
	"goptm/internal/workload/kvstore"
)

func main() {
	fig := flag.Int("fig", 0, "figure to regenerate: 3, 4, 6, 7, or 8")
	all := flag.Bool("all", false, "regenerate every figure")
	full := flag.Bool("full", false, "full paper scale (slower) instead of quick scale")
	smoke := flag.Bool("smoke", false, "tiny seconds-scale panel (CI smoke)")
	csvPath := flag.String("csv", "", "also append machine-readable CSV rows to this file")
	breakdown := flag.Bool("breakdown", false, "print per-phase overhead decomposition tables (attaches the breakdown recorder)")
	counters := flag.Bool("counters", false, "print hardware-counter tables per panel (attaches the counter registry; measured numbers are unchanged)")
	metricsJSON := flag.String("metricsjson", "", "write the sweep's diffable metrics report JSON to this file (implies -counters)")
	tracePath := flag.String("trace", "", "run one small traced measurement of the figure and write Perfetto/Chrome trace-event JSON to this file (skips the full sweep)")
	sweepOptions := runner.OptionFlags(flag.CommandLine)
	sweepTrace := flag.String("sweeptrace", "", "write a Perfetto trace of the sweep's own progress to this file")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "ptmbench: %v\n", err)
		os.Exit(1)
	}

	if *tracePath != "" {
		n := *fig
		if n == 0 {
			n = 4
		}
		if err := runTraced(n, *tracePath, *breakdown); err != nil {
			fail(err)
		}
		return
	}

	if !*all && (*fig < 3 || *fig > 8 || *fig == 5) {
		fmt.Fprintln(os.Stderr, "usage: ptmbench -fig {3|4|6|7|8} [-full|-smoke] [-jobs N] [-shard i/n] [-v] [-breakdown] [-trace out.json], or -all")
		os.Exit(2)
	}

	p := harness.QuickParams()
	switch {
	case *full:
		p = harness.FullParams()
	case *smoke:
		p = harness.Params{Threads: []int{1, 2}, WarmupNS: 100_000, MeasureNS: 500_000, Small: true}
	}
	p.Observe = *breakdown
	p.Counters = *counters || *metricsJSON != ""

	// One worker pool size, one shard and one Progress — whose totals
	// accumulate across figures — for every panel of the invocation.
	var sweepRec *obs.Recorder
	if *sweepTrace != "" {
		sweepRec = obs.New(1, true)
	}
	opts, err := sweepOptions(os.Stderr, sweepRec)
	if err != nil {
		fail(err)
	}

	var report *metrics.Report
	if *metricsJSON != "" {
		report = harness.NewReport()
	}

	var csvOut io.Writer
	if *csvPath != "" {
		f, err := os.OpenFile(*csvPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		csvOut = f
	}

	run := func(n int) {
		if err := runFigure(n, p, opts, csvOut, *breakdown, report); err != nil {
			fail(err)
		}
	}
	if *all {
		for _, n := range []int{3, 4, 6, 7, 8} {
			run(n)
		}
	} else {
		run(*fig)
	}
	if report != nil {
		if err := metrics.WriteReportFile(*metricsJSON, report); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "ptmbench: metrics report (%d cells) -> %s\n", len(report.Cells), *metricsJSON)
	}
	fmt.Fprintf(os.Stderr, "ptmbench: %s\n", opts.Progress.Summary())
	if sweepRec != nil {
		if err := sweepRec.WriteTraceFile(*sweepTrace); err != nil {
			fail(err)
		}
	}
}

func runFigure(n int, p harness.Params, opts runner.Options, csvOut io.Writer, breakdown bool, report *metrics.Report) error {
	emit := func(fig harness.Figure) error {
		fig.Print(os.Stdout)
		if breakdown {
			fig.PrintBreakdown(os.Stdout)
		}
		if p.Counters {
			fig.PrintCounters(os.Stdout)
		}
		if report != nil {
			harness.AppendMetrics(report, fig)
		}
		if csvOut != nil {
			return fig.WriteCSV(csvOut)
		}
		return nil
	}
	switch n {
	case 3, 6:
		cells := harness.Fig34Cells()
		name := "Figure 3"
		if n == 6 {
			cells = harness.Fig67Cells()
			name = "Figure 6"
		}
		for _, mk := range harness.PanelWorkloads() {
			fig, err := harness.RunPanel(name, mk, cells, p, opts)
			if err != nil {
				return err
			}
			if err := emit(fig); err != nil {
				return err
			}
		}
	case 4, 7:
		cells := harness.Fig34Cells()
		name := "Figure 4"
		if n == 7 {
			cells = harness.Fig67Cells()
			name = "Figure 7"
		}
		fig, err := harness.RunPanel(name, harness.TATPWorkload(), cells, p, opts)
		if err != nil {
			return err
		}
		if err := emit(fig); err != nil {
			return err
		}
	case 8:
		points, err := harness.RunFig8(p, opts)
		if err != nil {
			return err
		}
		harness.PrintFig8(points, os.Stdout)
		if csvOut != nil {
			if err := harness.WriteFig8CSV(points, csvOut); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown figure %d", n)
	}
	return nil
}

// runTraced measures one small representative point of figure n with
// full event tracing and writes the Perfetto JSON to path. One traced
// point keeps traces loadable and the CI smoke step fast; sweeps stay
// untraced.
func runTraced(n int, path string, breakdown bool) error {
	wl, cell, err := tracePoint(n)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()

	p := harness.QuickParams()
	rc := harness.RunConfig{Threads: 4, WarmupNS: p.WarmupNS, MeasureNS: p.MeasureNS}
	// Attach the counter model so the trace carries the media XPLine
	// and commit counter tracks.
	rc.Metrics = metrics.New(metrics.Config{Serial: true}) // harness machines always run lockstep
	res, err := harness.RunTraced(cell, rc, wl.Make(p), f)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("traced %s on %s: %d commits, %d aborts, %.0f ops/s -> %s\n",
		wl.Name, cell.Label(), res.Commits, res.Aborts, res.ThroughputOps, path)
	if breakdown {
		obs.WriteTable(os.Stdout, []string{cell.Label()}, []*obs.Breakdown{&res.Breakdown})
	}
	return nil
}

// tracePoint picks the workload and cell the traced point of figure n
// runs: the figure's first panel on a representative Optane cell.
func tracePoint(n int) (harness.WorkloadMaker, harness.Cell, error) {
	adrRedo := harness.Cell{Medium: core.MediumNVM, Domain: durability.ADR, Algo: core.OrecLazy}
	switch n {
	case 3:
		return harness.PanelWorkloads()[0], adrRedo, nil
	case 4:
		return harness.TATPWorkload(), adrRedo, nil
	case 6:
		return harness.PanelWorkloads()[0],
			harness.Cell{Medium: core.MediumNVM, Domain: durability.PDRAM, Algo: core.OrecLazy}, nil
	case 7:
		return harness.TATPWorkload(),
			harness.Cell{Medium: core.MediumNVM, Domain: durability.PDRAM, Algo: core.OrecLazy}, nil
	case 8:
		return harness.WorkloadMaker{Name: "kvstore", Make: func(p harness.Params) workload.Workload {
			return kvstore.New(kvstore.Config{Items: 1024})
		}}, adrRedo, nil
	default:
		return harness.WorkloadMaker{}, harness.Cell{}, fmt.Errorf("no traceable point for figure %d", n)
	}
}
