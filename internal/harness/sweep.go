package harness

// sweep.go bridges the experiment definitions (experiments.go) to the
// parallel engine (internal/runner): every figure and table is
// decomposed into independent jobs — each owning its whole simulated
// machine — and reassembled in definition order, so the rendered
// output is byte-identical at any worker count. All sweep jobs run
// under the lockstep scheduler, which is what makes a cell's result a
// pure function of its configuration.

import (
	"fmt"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/metrics"
	"goptm/internal/obs"
	"goptm/internal/runner"
	"goptm/internal/workload/kvstore"
)

// seriesSamples is how many fixed-interval samples a counters-enabled
// sweep cell records across its warmup + measurement window.
const seriesSamples = 64

// panelJob builds the runner job for one (cell, thread-count) point.
func panelJob(mk WorkloadMaker, cell Cell, n int, p Params) runner.Job[Result] {
	return runner.Job[Result]{
		Label:  fmt.Sprintf("%s %s @%d", mk.Name, cell.Label(), n),
		CostNS: p.WarmupNS + p.MeasureNS,
		Run: func() (Result, error) {
			rc := RunConfig{Threads: n, WarmupNS: p.WarmupNS, MeasureNS: p.MeasureNS, Lockstep: true}
			if p.Observe || p.Counters {
				rc.Recorder = obs.New(n, false) // breakdown accounting, no event retention
			}
			if p.Counters {
				rc.Metrics = metrics.New(metrics.Config{
					SampleIntervalNS: (p.WarmupNS + p.MeasureNS) / seriesSamples,
					Serial:           true, // sweep jobs always run lockstep
				})
			}
			return Run(cell, rc, mk.Make(p))
		},
		Detail: func(r Result) string {
			return fmt.Sprintf("%s %-24s %2d threads: %10.0f ops/s (cache hit %.1f%%, p99 %d ns)",
				mk.Name, cell.Label(), n, r.ThroughputOps,
				100*r.Metrics.HitRate(), r.Latency.Percentile(99))
		},
	}
}

// RunPanel measures every (cell, thread-count) point of one panel.
// opts says how the sweep executes (workers, shard, progress),
// not what it measures — that stays in Params. Skipped (sharded-away)
// points stay zero Results and render as "-".
func RunPanel(name string, mk WorkloadMaker, cells []Cell, p Params, opts runner.Options) (Figure, error) {
	fig := Figure{Name: name, Workload: mk.Name, Threads: p.Threads}
	var jobs []runner.Job[Result]
	for _, cell := range cells {
		for _, n := range p.Threads {
			jobs = append(jobs, panelJob(mk, cell, n, p))
		}
	}
	outs, err := runner.Run(opts, jobs)
	if err != nil {
		return fig, fmt.Errorf("%s: %w", name, err)
	}
	i := 0
	for _, cell := range cells {
		s := Series{Cell: cell}
		for range p.Threads {
			s.Results = append(s.Results, outs[i].Value)
			i++
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// RunTable12 reproduces Table I (redo) or Table II (undo):
// commits-per-abort for TPCC (Hash Table).
func RunTable12(algo core.Algo, p Params, opts runner.Options) (Figure, error) {
	mk := table12Maker()
	name := "Table I"
	if algo == core.OrecEager {
		name = "Table II"
	}
	return RunPanel(name, mk, TableIOrIICells(algo), p, opts)
}

// RunTable3 measures the fence-elision ablation at a low thread count
// (the paper reports a latency snapshot; at saturation the WPQ-accept
// wait would dominate and overstate the fence share). One job is one
// table row (the base + no-fence measurement pair): the two runs
// share a row, so splitting them would only reorder progress lines.
func RunTable3(p Params, opts runner.Options) ([]Table3Row, error) {
	const threads = 2
	var jobs []runner.Job[Table3Row]
	for _, mk := range table3Makers() {
		for _, algo := range []core.Algo{core.OrecEager, core.OrecLazy} {
			mk, algo := mk, algo
			cell := Cell{Medium: core.MediumNVM, Domain: durability.ADR, Algo: algo}
			jobs = append(jobs, runner.Job[Table3Row]{
				Label:  fmt.Sprintf("table3 %s %v", mk.Name, algo),
				CostNS: 2 * (p.WarmupNS + p.MeasureNS),
				Run: func() (Table3Row, error) {
					rc := RunConfig{Threads: threads, WarmupNS: p.WarmupNS, MeasureNS: p.MeasureNS, Lockstep: true}
					base, err := Run(cell, rc, mk.Make(p))
					if err != nil {
						return Table3Row{}, err
					}
					nfCell := cell
					nfCell.NoFence = true
					nf, err := Run(nfCell, rc, mk.Make(p))
					if err != nil {
						return Table3Row{}, err
					}
					return Table3Row{
						Workload: mk.Name,
						Algo:     algo,
						Base:     base.ThroughputOps,
						NoFence:  nf.ThroughputOps,
						Speedup:  (nf.ThroughputOps/base.ThroughputOps - 1) * 100,
					}, nil
				},
				Detail: func(row Table3Row) string {
					return fmt.Sprintf("table3 %-14s %-5v: base %10.0f nofence %10.0f speedup %5.1f%%",
						row.Workload, row.Algo, row.Base, row.NoFence, row.Speedup)
				},
			})
		}
	}
	outs, err := runner.Run(opts, jobs)
	if err != nil {
		return nil, fmt.Errorf("Table III: %w", err)
	}
	rows := make([]Table3Row, len(outs))
	for i, o := range outs {
		rows[i] = o.Value
	}
	return rows, nil
}

// RunFig8 reproduces the memcached working-set study — one worker
// thread, 50/50 get/set, throughput vs resident items — one job per
// (working-set size, cell) point. Skipped points are absent from a
// point's Results map and render as "-".
func RunFig8(p Params, opts runner.Options) ([]Fig8Point, error) {
	cells := fig8Cells
	items := Fig8ItemCounts(p.Small)
	var jobs []runner.Job[Result]
	for _, n := range items {
		for _, cell := range cells {
			n, cell := n, cell
			jobs = append(jobs, runner.Job[Result]{
				Label:  fmt.Sprintf("fig8 items=%d %s", n, cell.Label()),
				CostNS: p.WarmupNS + p.MeasureNS,
				Run: func() (Result, error) {
					rc := RunConfig{
						Threads:    1,
						WarmupNS:   p.WarmupNS,
						MeasureNS:  p.MeasureNS,
						L3Lines:    fig8L3Lines,
						PageFrames: fig8PageFrames,
						Lockstep:   true,
					}
					return Run(cell, rc, kvstore.New(kvstore.Config{Items: n}))
				},
				Detail: func(r Result) string {
					return fmt.Sprintf("fig8 items=%-6d %-24s %10.0f req/s", n, cell.Label(), r.ThroughputOps)
				},
			})
		}
	}
	outs, err := runner.Run(opts, jobs)
	if err != nil {
		return nil, fmt.Errorf("Figure 8: %w", err)
	}
	var points []Fig8Point
	i := 0
	for _, n := range items {
		pt := Fig8Point{
			Items:   n,
			WSBytes: kvstore.WorkingSetWords(n) * 8,
			Results: map[string]float64{},
		}
		for _, cell := range cells {
			if outs[i].Source != runner.Skipped {
				pt.Results[cell.Label()] = outs[i].Value.ThroughputOps
			}
			i++
		}
		points = append(points, pt)
	}
	return points, nil
}
