package runner

import (
	"fmt"
	"io"
	"sync"
	"time"

	"goptm/internal/obs"
)

// Progress tracks a sweep's per-cell completion for stderr reporting
// and, optionally, an obs counter track (obs.TrackSweepCells) so the
// sweep's pace can be inspected in a Perfetto trace alongside the
// simulation's own lanes.
//
// The ETA estimate uses the completed-cell virtual-to-wall ratio:
// every job declares its virtual cost up front (warmup + measurement
// window) and reports the wall time it actually took, and the
// remaining wall time is remaining-virtual-ns × (wall-per-virtual) ÷
// workers. Cells sharded away are never part of the total.
//
// A nil *Progress is valid and silent, like a nil obs recorder. One
// Progress may span several sweeps (ptmbench -all): Begin accumulates
// totals rather than resetting.
type Progress struct {
	w   io.Writer     // per-cell lines and ETA; nil = silent
	rec *obs.Recorder // optional counter track; nil = off

	mu        sync.Mutex
	start     time.Time
	workers   int
	total     int   // owned cells across all Begin calls
	totalCost int64 // virtual ns across owned cells
	done      int
	doneCost  int64 // virtual ns of completed cells
	skipped   int
	simWall   time.Duration // wall time spent simulating
}

// NewProgress builds a reporter writing per-cell lines to w (nil for
// silent) and counter samples to rec (nil for none).
func NewProgress(w io.Writer, rec *obs.Recorder) *Progress {
	return &Progress{w: w, rec: rec}
}

// Begin announces a sweep of owned cells totalling costNS virtual ns,
// run by workers workers. Repeated calls accumulate.
func (p *Progress) Begin(owned int, costNS int64, workers int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.start.IsZero() {
		p.start = time.Now()
	}
	p.total += owned
	p.totalCost += costNS
	if workers > p.workers {
		p.workers = workers
	}
}

// Skip records cells excluded by sharding.
func (p *Progress) Skip(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.skipped += n
	p.mu.Unlock()
}

// Done records one simulated cell: costNS is the cell's declared
// virtual cost, wall the host time the simulation took, and detail an
// optional human line (throughput and friends) to print after the
// [done/total] prefix.
func (p *Progress) Done(label string, costNS int64, wall time.Duration, detail string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done++
	p.doneCost += costNS
	p.simWall += wall
	line := detail
	if line == "" {
		line = label + ": simulated"
	}
	out := fmt.Sprintf("  [%*d/%d] %s%s\n", digits(p.total), p.done, p.total, line, p.etaLocked())
	done, start, w, rec := p.done, p.start, p.w, p.rec
	p.mu.Unlock()

	if w != nil {
		fmt.Fprint(w, out)
	}
	// The counter lane is wall-clock-based: the sweep is host work, not
	// simulated time.
	rec.CountShared(obs.TrackSweepCells, time.Since(start).Nanoseconds(), float64(done))
}

// etaLocked renders the ETA suffix, or "" before any completed cell
// has established a virtual-to-wall ratio. Caller holds p.mu.
func (p *Progress) etaLocked() string {
	if p.done >= p.total || p.doneCost == 0 || p.workers == 0 {
		return ""
	}
	ratio := float64(p.simWall) / float64(p.doneCost) // wall ns per virtual ns
	rem := time.Duration(float64(p.totalCost-p.doneCost) * ratio / float64(p.workers))
	return fmt.Sprintf("   (ETA %s)", rem.Round(time.Second))
}

// Counts reports completed and skipped cells.
func (p *Progress) Counts() (done, skipped int) {
	if p == nil {
		return 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done, p.skipped
}

// Summary renders the one-line sweep outcome the CLIs print.
func (p *Progress) Summary() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprintf("%d cells: %d simulated, %d skipped in %s",
		p.done, p.done, p.skipped, time.Since(p.start).Round(10*time.Millisecond))
}

// digits reports the print width of n, for aligned [done/total].
func digits(n int) int {
	w := 1
	for n >= 10 {
		n /= 10
		w++
	}
	return w
}
