// Package harness runs the paper's experiments: it assembles a TM for
// a (medium, durability domain, algorithm) cell, drives a workload
// with N worker threads for a virtual-time measurement window, and
// reports throughput and commit/abort statistics. The experiment
// definitions that regenerate each figure and table live in
// experiments.go; sweep.go decomposes them into independent jobs for
// the parallel engine (internal/runner), which adds worker pooling
// and CI sharding on top.
package harness

import (
	"fmt"
	"io"
	"sync"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/metrics"
	"goptm/internal/obs"
	"goptm/internal/stats"
	"goptm/internal/workload"
	"goptm/internal/wpq"
)

// Cell names one experimental configuration of the PTM.
type Cell struct {
	Medium  core.Medium
	Domain  durability.Domain
	Algo    core.Algo
	NoFence bool
}

// Label renders the cell the way the paper labels its curves, e.g.
// "Optane_ADR_R" or "DRAM_eADR_U" ("H" for the HTM extension).
func (c Cell) Label() string {
	algo := "R"
	switch c.Algo {
	case core.OrecEager:
		algo = "U"
	case core.AlgoHTM:
		algo = "H"
	}
	l := fmt.Sprintf("%s_%s_%s", c.Medium, c.Domain, algo)
	if c.NoFence {
		l += "_nofence"
	}
	return l
}

// RunConfig controls one measurement.
type RunConfig struct {
	Threads    int
	WarmupNS   int64 // virtual warmup excluded from measurement
	MeasureNS  int64 // virtual measurement window
	PageFrames int   // page-cache frames (PDRAM); 0 = cover the heap
	L3Lines    int   // 0 = membus default
	HeapWords  uint64
	MaxLog     int
	WPQDepth   int // 0 = default (64)
	// Lockstep selects the deterministic virtual-time scheduler, making
	// the measurement bit-reproducible across runs and hosts. The sweep
	// engine (sweep.go) always sets it; direct Run callers opt in.
	Lockstep bool
	// Recorder attaches observability to the run (phase breakdown, and
	// trace events when the recorder traces). nil leaves it off; the
	// instrumented paths then cost nothing.
	Recorder *obs.Recorder
	// Metrics attaches the hardware-counter registry (media/WPQ
	// telemetry and the virtual-time series). nil leaves the counter
	// model off the device paths; Result.Metrics then carries only the
	// always-on component and transaction counters. Counting is pure
	// accounting — it never moves virtual time, so attaching a registry
	// cannot change any measured number.
	Metrics *metrics.Registry
}

// Result is one measured cell.
type Result struct {
	Workload string
	Cell     Cell
	Threads  int
	Commits  int64
	Aborts   int64
	// ThroughputOps is committed transactions per virtual second.
	ThroughputOps   float64
	CommitsPerAbort float64
	MaxLogLines     int
	EndVT           int64 // virtual time at the end of the measurement
	// Latency aggregates committed-transaction latency across workers
	// (virtual ns; includes warmup transactions).
	Latency stats.Histogram
	// Breakdown is the merged phase accounting (zero unless the run
	// config attached a Recorder; cumulative including warmup).
	Breakdown obs.Breakdown
	// Metrics is the machine's counter snapshot at the end of the run
	// (cumulative including setup and warmup; the media-model fields
	// and time series are zero unless the run config attached a
	// metrics registry).
	Metrics metrics.Snapshot
}

// BuildTM assembles a TM for one cell and run configuration, sized
// for the workload.
func BuildTM(c Cell, rc RunConfig, w workload.Workload) (*core.TM, error) {
	heap := rc.HeapWords
	if heap == 0 {
		if hs, ok := w.(workload.HeapSizer); ok {
			heap = hs.HeapWords()
		} else {
			heap = 1 << 20
		}
	}
	maxLog := rc.MaxLog
	if maxLog == 0 {
		maxLog = 1024
	}
	frames := rc.PageFrames
	if frames == 0 {
		// PDRAM's DRAM covers the working set by default (the paper's
		// sub-96 GB regime); Fig 8 overrides this to model capacity.
		frames = int(heap/512) + 64
	}
	cfg := core.Config{
		Algo:          c.Algo,
		Medium:        c.Medium,
		Domain:        c.Domain,
		Threads:       rc.Threads,
		HeapWords:     heap,
		MaxLogEntries: maxLog,
		L3Lines:       rc.L3Lines,
		PageFrames:    frames,
		NoFence:       c.NoFence,
		Lockstep:      rc.Lockstep,
		Recorder:      rc.Recorder,
		Metrics:       rc.Metrics,
	}
	if rc.WPQDepth > 0 {
		cfg.Ctl = wpq.DefaultConfig(rc.Threads)
		cfg.Ctl.Depth = rc.WPQDepth
	}
	return core.New(cfg)
}

// Run measures one cell: build, setup, warmup, measure.
func Run(c Cell, rc RunConfig, w workload.Workload) (Result, error) {
	tm, err := BuildTM(c, rc, w)
	if err != nil {
		return Result{}, err
	}
	return RunOn(tm, c, rc, w), nil
}

// RunTraced measures one cell with full event tracing attached and
// writes the run's Chrome trace-event JSON to w (open it in
// ui.perfetto.dev). Tracing retains every span and counter sample, so
// keep the measurement window small; the returned Result carries the
// phase breakdown like any observed run. When the run config also
// attaches a metrics registry, its sampled time series is exported as
// counter tracks in the same trace.
func RunTraced(c Cell, rc RunConfig, wl workload.Workload, w io.Writer) (Result, error) {
	rc.Recorder = obs.New(rc.Threads, true)
	res, err := Run(c, rc, wl)
	if err != nil {
		return res, err
	}
	rc.Metrics.ExportTracks(rc.Recorder)
	return res, rc.Recorder.WriteTrace(w)
}

// RunOn measures a workload on an already-built TM (used by Fig 8 and
// the ablations that need custom TM configs).
func RunOn(tm *core.TM, c Cell, rc RunConfig, w workload.Workload) Result {
	setup := tm.Thread(0)
	w.Setup(tm, setup)
	setupEnd := setup.Now()
	setup.Detach()

	warmupEnd := setupEnd + rc.WarmupNS
	end := warmupEnd + rc.MeasureNS

	type counts struct {
		commits, aborts int64
		maxLogLines     int
		latency         *stats.Histogram
	}
	results := make([]counts, rc.Threads)
	// Attach every worker to the virtual-time barrier before any of
	// them runs: a worker that starts alone would cross windows freely
	// and burn the measurement interval unsynchronized.
	threads := make([]*core.Thread, rc.Threads)
	for tid := range threads {
		threads[tid] = tm.Thread(tid)
	}
	var wg sync.WaitGroup
	for tid := 0; tid < rc.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			th := threads[tid]
			defer th.Detach()
			for th.Now() < warmupEnd {
				w.Step(th)
			}
			s0 := th.Stats()
			for th.Now() < end {
				w.Step(th)
			}
			s1 := th.Stats()
			results[tid] = counts{
				commits:     s1.Commits - s0.Commits,
				aborts:      s1.Aborts - s0.Aborts,
				maxLogLines: s1.MaxLogLines,
				latency:     th.Latency(),
			}
		}(tid)
	}
	wg.Wait()

	var res Result
	res.Workload = w.Name()
	res.Cell = c
	res.Threads = rc.Threads
	for _, r := range results {
		res.Commits += r.commits
		res.Aborts += r.aborts
		if r.maxLogLines > res.MaxLogLines {
			res.MaxLogLines = r.maxLogLines
		}
		if r.latency != nil {
			res.Latency.Merge(r.latency)
		}
	}
	res.ThroughputOps = float64(res.Commits) / (float64(rc.MeasureNS) / 1e9)
	if res.Aborts > 0 {
		res.CommitsPerAbort = float64(res.Commits) / float64(res.Aborts)
	}
	res.EndVT = end
	res.Breakdown = tm.Recorder().Breakdown()
	res.Metrics = tm.MetricsSnapshot()
	return res
}
