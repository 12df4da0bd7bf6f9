// Package runner is the parallel experiment engine: it schedules the
// independent cells of a sweep (one cell = one self-contained
// discrete-event simulation in virtual time) across a bounded worker
// pool, splits work across CI machines by shard, and reports per-cell
// progress with an ETA derived from the completed cells'
// virtual-to-wall ratio.
//
// Determinism is the load-bearing property. Because every cell owns
// its whole machine — virtual-time engine, memory system, RNG seeds —
// and the harness runs cells under the lockstep scheduler
// (simtime.NewLockstepEngine), a cell's result is a pure function of
// its configuration. The pool therefore reassembles results in job
// order and produces output byte-identical to a serial run at any
// worker count. Results are never stored: a number is only worth
// printing if this build of the simulator computed it (docs/RUNNING.md,
// "Why there is no result cache").
//
// The package is generic over the result type: the harness runs panel
// cells (harness.Result) and Table III rows through the same engine.
package runner

import (
	"flag"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"goptm/internal/obs"
)

// Source says how a job's result was obtained.
type Source int

// Job outcomes: simulated, or skipped because another shard owns it.
const (
	Simulated Source = iota
	Skipped
)

// Job is one schedulable cell of a sweep.
type Job[T any] struct {
	// Label identifies the cell in progress output.
	Label string
	// CostNS is the job's a-priori virtual duration (warmup +
	// measurement window), the unit of the ETA estimate.
	CostNS int64
	// Run performs the simulation. It must be self-contained: the pool
	// calls it from an arbitrary goroutine, concurrently with other
	// jobs.
	Run func() (T, error)
	// Detail, if non-nil, renders the completed result as the progress
	// line body (throughput, hit rate, ...).
	Detail func(T) string
}

// Outcome is one job's result and how it was obtained. For a Skipped
// job, Value is the zero T.
type Outcome[T any] struct {
	Value  T
	Source Source
}

// Options configures one Run call.
type Options struct {
	// Jobs bounds the worker pool; <= 0 selects runtime.GOMAXPROCS(0).
	// 1 is the serial path.
	Jobs int
	// Shard restricts execution to every Count-th job (zero value: run
	// everything).
	Shard Shard
	// Progress, when non-nil, receives per-cell completion reports.
	Progress *Progress
}

// OptionFlags registers the sweep-execution flags ptmbench and
// ptmtables share (-jobs, -shard, -v) on fs and returns the function
// that, once fs is parsed, turns them into Options: it parses the shard
// and builds the Progress, whose per-cell lines go to verbose only
// under -v and whose counter samples go to rec (nil for none).
func OptionFlags(fs *flag.FlagSet) func(verbose io.Writer, rec *obs.Recorder) (Options, error) {
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulations (1 = serial; output is identical either way)")
	shardSpec := fs.String("shard", "", "run only shard i of n (\"i/n\", 1-based) for CI splitting")
	v := fs.Bool("v", false, "stream per-point progress")
	return func(verbose io.Writer, rec *obs.Recorder) (Options, error) {
		opts := Options{Jobs: *jobs}
		var err error
		if opts.Shard, err = ParseShard(*shardSpec); err != nil {
			return opts, err
		}
		if !*v {
			verbose = nil
		}
		opts.Progress = NewProgress(verbose, rec)
		return opts, nil
	}
}

// Run executes the jobs across the pool and returns their outcomes in
// job order — the caller reassembles tables without caring which
// worker finished when. On error it stops scheduling new jobs and
// returns the first error in job order (deterministic, like the
// serial path's fail-fast).
func Run[T any](opts Options, jobs []Job[T]) ([]Outcome[T], error) {
	workers := opts.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}

	owned, ownedCost := 0, int64(0)
	for i := range jobs {
		if opts.Shard.Owns(i) {
			owned++
			ownedCost += jobs[i].CostNS
		}
	}
	opts.Progress.Begin(owned, ownedCost, workers)
	opts.Progress.Skip(len(jobs) - owned)

	outs := make([]Outcome[T], len(jobs))
	errs := make([]error, len(jobs))
	var failed atomic.Bool
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				outs[i], errs[i] = runOne(opts, &jobs[i])
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := range jobs {
		if !opts.Shard.Owns(i) {
			outs[i] = Outcome[T]{Source: Skipped}
			continue
		}
		if failed.Load() {
			break
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return outs, err
		}
	}
	return outs, nil
}

// runOne simulates one owned job and reports it.
func runOne[T any](opts Options, j *Job[T]) (Outcome[T], error) {
	t0 := time.Now()
	v, err := j.Run()
	if err != nil {
		return Outcome[T]{}, err
	}
	detail := ""
	if j.Detail != nil {
		detail = j.Detail(v)
	}
	opts.Progress.Done(j.Label, j.CostNS, time.Since(t0), detail)
	return Outcome[T]{Value: v, Source: Simulated}, nil
}
