package server

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
)

// The adaptive group-commit controller closes the loop the static
// -maxbatch/-window knobs leave open: the right batch cap and window
// are load-dependent (Izraelevitz et al.'s buffered-write behaviour
// means the amortization sweet spot moves with the offered rate), so
// each shard drives its own (cap, window) pair from the signals its
// worker already produces — queue backlog observed at pop time, the
// batch latency seen this interval, and shed counts — with an
// AIMD-style step rule evaluated on *virtual* time. Every input is a
// pure function of simulated history (no host clocks, no floats), so
// lockstep runs remain bit-reproducible and the controller trace can
// be golden-hash pinned like any other deterministic artifact.
//
// The rule, evaluated once per EvalIntervalNS of shard virtual time:
//
//   pressure — sheds this interval, backlog at pop averaging a full
//       batch or more, or interval max latency within 2x of the shed
//       deadline: additively raise the batch cap (more amortization
//       per commit tail). The window is raised only on the shed
//       signal: under backlog pressure the queue fills batches by
//       itself and a straggler wait is pure added latency, but once
//       requests are dying at the deadline the shard is past
//       saturation and a longer window only deepens amortization
//       (batches already fill before the window matters).
//   idle — no sheds, average backlog under a quarter batch: multipli-
//       catively decay the window (a lone arrival should not wait out
//       a group-commit window sized for a rush hour) and the cap.
//   otherwise — hold.
//
// Additive increase / multiplicative decrease mirrors congestion
// control for the same reason it works there: probe up gently into
// the knee, back off fast when the load evaporates.

// CtrlConfig bounds and paces the per-shard adaptive controller.
// The zero value selects the defaults noted on each field.
type CtrlConfig struct {
	MinBatch int // lower cap bound; 0 selects 1
	// MaxBatch is the upper cap bound; 0 selects the executor's
	// MaxBatch (itself bounded by the store's log sizing).
	MaxBatch    int
	MinWindowNS int64 // lower window bound; 0 is a real value (no wait)
	// MaxWindowNS is the upper window bound; 0 selects 16384 (16 µs).
	MaxWindowNS int64
	// EvalIntervalNS is the controller's step period in virtual ns;
	// 0 selects 8192.
	EvalIntervalNS int64
	// BatchStep is the additive cap increase per pressured step;
	// 0 selects 4.
	BatchStep int
	// WindowStepNS is the additive window increase per pressured step;
	// 0 selects 1024.
	WindowStepNS int64
	// Trace retains one CtrlStep per evaluation (loadsim sets it; the
	// TCP server leaves it off so a long-lived shard never grows an
	// unbounded trace).
	Trace bool
}

func (c CtrlConfig) withDefaults(execMaxBatch int) CtrlConfig {
	if c.MinBatch <= 0 {
		c.MinBatch = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = execMaxBatch
	}
	if c.MaxBatch < c.MinBatch {
		c.MaxBatch = c.MinBatch
	}
	if c.MinWindowNS < 0 {
		c.MinWindowNS = 0
	}
	if c.MaxWindowNS <= 0 {
		c.MaxWindowNS = 16384
	}
	if c.MaxWindowNS < c.MinWindowNS {
		c.MaxWindowNS = c.MinWindowNS
	}
	if c.EvalIntervalNS <= 0 {
		c.EvalIntervalNS = 8192
	}
	if c.BatchStep <= 0 {
		c.BatchStep = 4
	}
	if c.WindowStepNS <= 0 {
		c.WindowStepNS = 1024
	}
	return c
}

// CtrlStep is one controller evaluation: the interval's observed
// signals and the (cap, window) pair chosen from them. VT is the
// virtual time of the evaluation; Dir is +1 (pressure), -1 (idle
// decay), or 0 (hold).
type CtrlStep struct {
	VT       int64
	Pops     int64 // pop observations this interval
	Backlog  int64 // summed queue depth observed at those pops
	Sheds    int64 // deadline sheds this interval
	Batches  int64 // batches executed this interval
	Ops      int64 // requests executed this interval
	MaxLatNS int64 // worst enqueue→completion latency this interval
	Dir      int
	Cap      int   // batch cap after the step
	WindowNS int64 // group-commit window after the step
}

// ctrl is one shard's controller. The shard worker is the only
// writer and the only stepper; Cap/Window are mirrored through
// atomics so the stats path can read them from host goroutines
// without racing the worker.
type ctrl struct {
	cfg      CtrlConfig
	deadline int64 // executor shed deadline (latency pressure reference)

	cap    atomic.Int64
	window atomic.Int64
	steps  atomic.Int64

	nextEval int64

	// Interval accumulators, reset at each step.
	pops    int64
	backlog int64
	sheds   int64
	batches int64
	ops     int64
	maxLat  int64

	trace []CtrlStep
}

// newCtrl seeds the controller at the executor's static operating
// point (clamped into bounds) so an adaptive run starts from the same
// place a static one does and walks away only as the signals demand.
func newCtrl(cfg CtrlConfig, startCap int, startWindow, deadline int64) *ctrl {
	c := &ctrl{cfg: cfg, deadline: deadline}
	c.cap.Store(int64(min(max(startCap, cfg.MinBatch), cfg.MaxBatch)))
	c.window.Store(min(max(startWindow, cfg.MinWindowNS), cfg.MaxWindowNS))
	return c
}

// params returns the shard's current (cap, window) operating point.
func (c *ctrl) params() (int, int64) {
	return int(c.cap.Load()), c.window.Load()
}

// observePop records one pop's observed backlog (queue depth before
// the pop).
func (c *ctrl) observePop(backlog int) {
	c.pops++
	c.backlog += int64(backlog)
}

// observe folds one completion record into the interval: a shed
// group's size (from any pop, the window-wait refills included), or an
// executed batch and its worst request latency. Nil-safe: a static
// shard has no controller.
func (c *ctrl) observe(d *completion) {
	if c == nil {
		return
	}
	switch n := int64(len(d.members)); d.kind {
	case batchShed:
		c.sheds += n
	case batchExecuted:
		c.batches++
		c.ops += n
		c.maxLat = max(c.maxLat, d.worst)
	}
}

// maybeStep evaluates the AIMD rule if an interval boundary has
// passed, reporting whether it evaluated and which direction it moved
// (+1 pressure, -1 idle decay, 0 hold). It never advances virtual
// time — the controller is pure accounting, like the metrics registry
// — and it is deterministic: every input derives from
// lockstep-scheduled history.
func (c *ctrl) maybeStep(now int64) (stepped bool, dir int) {
	if c.nextEval == 0 {
		c.nextEval = now + c.cfg.EvalIntervalNS
		return false, 0
	}
	if now < c.nextEval {
		return false, 0
	}
	cap64, window := c.cap.Load(), c.window.Load()
	capN := int(cap64)

	// Pressure: load is outrunning the current operating point. Sheds
	// are the late signal; backlog averaging a full batch per pop and
	// interval max latency within 2x of the shed deadline are the
	// early ones.
	pressure := c.sheds > 0 ||
		(c.pops > 0 && c.backlog >= c.pops*cap64) ||
		(c.deadline > 0 && c.maxLat*2 > c.deadline)
	// Idle: nothing shed and the queue is nearly empty at pop time
	// (an interval with no pops at all counts: 0 backlog is idle).
	idle := !pressure && c.backlog*4 <= c.pops*cap64

	switch {
	case pressure:
		dir = +1
		capN = min(max(capN+c.cfg.BatchStep, c.cfg.MinBatch), c.cfg.MaxBatch)
		if c.sheds > 0 {
			window = min(max(window+c.cfg.WindowStepNS, c.cfg.MinWindowNS), c.cfg.MaxWindowNS)
		}
	case idle:
		dir = -1
		capN = min(max(capN-max(1, capN/2), c.cfg.MinBatch), c.cfg.MaxBatch)
		window = min(max(window/2, c.cfg.MinWindowNS), c.cfg.MaxWindowNS)
	}
	c.cap.Store(int64(capN))
	c.window.Store(window)
	c.steps.Add(1)

	if c.cfg.Trace {
		c.trace = append(c.trace, CtrlStep{
			VT: now, Pops: c.pops, Backlog: c.backlog, Sheds: c.sheds,
			Batches: c.batches, Ops: c.ops, MaxLatNS: c.maxLat,
			Dir: dir, Cap: capN, WindowNS: window,
		})
	}

	c.pops, c.backlog, c.sheds, c.batches, c.ops, c.maxLat = 0, 0, 0, 0, 0, 0
	for c.nextEval <= now {
		c.nextEval += c.cfg.EvalIntervalNS
	}
	return true, dir
}

// TraceFNV folds a controller trace into one FNV-1a hash — the
// fingerprint the determinism tests and the sweep artifact pin. Two
// runs of the same config must produce the same hash; any divergence
// means the controller consumed non-simulated state.
func TraceFNV(steps []CtrlStep) uint64 {
	h := fnv.New64a()
	for _, s := range steps {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d %d\n",
			s.VT, s.Pops, s.Backlog, s.Sheds, s.Batches, s.Ops, s.MaxLatNS, s.Dir, s.Cap, s.WindowNS)
	}
	return h.Sum64()
}
