package server

import "testing"

// The controller unit tests drive ctrl directly with synthetic
// interval signals — no machine, no executor — so each rule of the
// step function is pinned in isolation. Virtual time is just an
// integer here; the executor integration is covered by the loadsim
// determinism tests.

func testCtrl(t *testing.T, startCap int, startWindow int64) *ctrl {
	t.Helper()
	cfg := CtrlConfig{MaxBatch: 32}.withDefaults(8)
	return newCtrl(cfg, startCap, startWindow, 1_000_000)
}

// step advances the controller one full evaluation interval with the
// given per-interval signals applied, returning the direction moved.
func step(c *ctrl, now *int64, backlog, sheds, ops int, maxLat int64) int {
	c.observePop(backlog)
	if sheds > 0 {
		c.observe(&completion{kind: batchShed, members: make([]*Request, sheds)})
	}
	if ops > 0 {
		c.observe(&completion{kind: batchExecuted, members: make([]*Request, ops), worst: maxLat})
	}
	*now += c.cfg.EvalIntervalNS
	_, dir := c.maybeStep(*now)
	return dir
}

func TestCtrlPressureConvergesToMaxBatch(t *testing.T) {
	c := testCtrl(t, 1, 0)
	now := int64(0)
	c.maybeStep(now) // arm the first interval
	// Persistent backlog ≥ cap is the early pressure signal; the cap
	// must walk to its bound within (MaxBatch-1)/BatchStep + 1 steps.
	steps := 0
	for cap, _ := c.params(); cap < c.cfg.MaxBatch; cap, _ = c.params() {
		if dir := step(c, &now, 64, 0, 1, 100); dir != +1 {
			t.Fatalf("step %d: dir = %d, want +1 under backlog pressure", steps, dir)
		}
		if steps++; steps > (c.cfg.MaxBatch-1)/c.cfg.BatchStep+1 {
			t.Fatalf("cap did not converge to %d in %d steps", c.cfg.MaxBatch, steps)
		}
	}
	// Backlog pressure alone must not have grown the window: batches
	// fill from the queue, a straggler wait would be pure latency.
	if _, w := c.params(); w != 0 {
		t.Fatalf("window grew to %d under shed-free backlog pressure", w)
	}
}

func TestCtrlShedPressureGrowsWindow(t *testing.T) {
	c := testCtrl(t, 8, 0)
	now := int64(0)
	c.maybeStep(now)
	if dir := step(c, &now, 0, 3, 1, 100); dir != +1 {
		t.Fatalf("dir = %d, want +1 when requests shed", dir)
	}
	if _, w := c.params(); w != c.cfg.WindowStepNS {
		t.Fatalf("window = %d after one shed step, want %d", w, c.cfg.WindowStepNS)
	}
}

func TestCtrlIdleDecaysToFloor(t *testing.T) {
	c := testCtrl(t, 32, 16384)
	now := int64(0)
	c.maybeStep(now)
	// Empty intervals (no pops at all) are idle; multiplicative decay
	// must reach the floor in O(log) steps (the 16384 ns window halves
	// to zero in 15).
	for i := 0; i < 16; i++ {
		if dir := step(c, &now, 0, 0, 0, 0); dir != -1 {
			t.Fatalf("step %d: dir = %d, want -1 when idle", i, dir)
		}
	}
	cap, w := c.params()
	if cap != c.cfg.MinBatch || w != c.cfg.MinWindowNS {
		t.Fatalf("after idle decay: (cap, window) = (%d, %d), want (%d, %d)",
			cap, w, c.cfg.MinBatch, c.cfg.MinWindowNS)
	}
}

func TestCtrlHoldsInTheMiddle(t *testing.T) {
	c := testCtrl(t, 8, 2000)
	now := int64(0)
	c.maybeStep(now)
	// Backlog of half a batch: not pressure (< cap), not idle (> cap/4).
	if dir := step(c, &now, 4, 0, 4, 100); dir != 0 {
		t.Fatalf("dir = %d, want 0 (hold) at moderate backlog", dir)
	}
	cap, w := c.params()
	if cap != 8 || w != 2000 {
		t.Fatalf("hold moved the operating point to (%d, %d)", cap, w)
	}
}

func TestCtrlBoundsClamp(t *testing.T) {
	c := testCtrl(t, 8, 2000)
	now := int64(0)
	c.maybeStep(now)
	for i := 0; i < 100; i++ {
		step(c, &now, 1024, 5, 1, 900_000)
	}
	if cap, w := c.params(); cap != c.cfg.MaxBatch || w != c.cfg.MaxWindowNS {
		t.Fatalf("after 100 pressured steps: (%d, %d), want clamped to (%d, %d)",
			cap, w, c.cfg.MaxBatch, c.cfg.MaxWindowNS)
	}
	for i := 0; i < 100; i++ {
		step(c, &now, 0, 0, 0, 0)
	}
	if cap, w := c.params(); cap != c.cfg.MinBatch || w != c.cfg.MinWindowNS {
		t.Fatalf("after 100 idle steps: (%d, %d), want clamped to (%d, %d)",
			cap, w, c.cfg.MinBatch, c.cfg.MinWindowNS)
	}
}

func TestCtrlLatencyPressure(t *testing.T) {
	c := testCtrl(t, 8, 0)
	now := int64(0)
	c.maybeStep(now)
	// Interval max latency past half the shed deadline counts as
	// pressure even with an empty queue — requests are about to die.
	if dir := step(c, &now, 0, 0, 1, 600_000); dir != +1 {
		t.Fatalf("dir = %d, want +1 when max latency nears the deadline", dir)
	}
}

func TestCtrlStartClampedIntoBounds(t *testing.T) {
	cfg := CtrlConfig{MinBatch: 2, MaxBatch: 16, MaxWindowNS: 4096}.withDefaults(8)
	c := newCtrl(cfg, 64, 1<<20, -1)
	if cap, w := c.params(); cap != 16 || w != 4096 {
		t.Fatalf("start point (64, 1M) clamped to (%d, %d), want (16, 4096)", cap, w)
	}
	c = newCtrl(cfg, 1, -5, -1)
	if cap, w := c.params(); cap != 2 || w != 0 {
		t.Fatalf("start point (1, -5) clamped to (%d, %d), want (2, 0)", cap, w)
	}
}

func TestCtrlTraceDeterministic(t *testing.T) {
	run := func() []CtrlStep {
		cfg := CtrlConfig{MaxBatch: 32, Trace: true}.withDefaults(8)
		c := newCtrl(cfg, 1, 0, 1_000_000)
		now := int64(0)
		c.maybeStep(now)
		for i := 0; i < 50; i++ {
			// A deterministic mix of pressure, idle, and hold intervals.
			switch i % 3 {
			case 0:
				step(c, &now, 64, 1, 8, 500_000)
			case 1:
				step(c, &now, 0, 0, 0, 0)
			default:
				step(c, &now, 2, 0, 2, 1000)
			}
		}
		return c.trace
	}
	a, b := run(), run()
	if len(a) != 50 || TraceFNV(a) != TraceFNV(b) {
		t.Fatalf("controller trace not reproducible: %d steps, fnv %x vs %x",
			len(a), TraceFNV(a), TraceFNV(b))
	}
}
