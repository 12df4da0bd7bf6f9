// Package simtime provides the virtual-time engine that underpins the
// simulated memory hierarchy.
//
// Every simulated hardware thread owns a Thread with a virtual clock
// measured in integer nanoseconds. Threads advance their own clocks as
// they execute simulated operations. A windowed barrier keeps all
// attached threads within one window (default 1 µs) of each other, so
// that intervals during which a thread holds a lock or occupies a
// resource overlap realistically with the activity of other threads.
// Shared hardware resources (cache ports, write-pending-queue drains,
// media read/write ports) are modeled as multi-port queueing servers:
// acquiring a busy server pushes the caller's completion time into the
// future, which is how bandwidth saturation emerges.
//
// Two scheduling modes share the window discipline. NewEngine runs
// attached threads concurrently on host cores inside each window.
// NewLockstepEngine grants the floor to exactly one thread at a time,
// in thread-id order per window, via direct per-thread handoff — the
// same interleaving every run, which makes a simulation a pure
// function of its configuration. Every number the experiment harness
// reports, and its byte-identical output at any worker count, rests on
// that property; the memory-system packages also elide their locks when
// told a lockstep engine is driving them.
//
// Rand is the deterministic splitmix64 generator workloads draw from;
// seeding it per thread keeps randomness reproducible and
// host-independent.
//
// Virtual time makes experiment results independent of the host's core
// count and speed: throughput is computed as committed operations per
// *virtual* second.
package simtime

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultWindow is the default barrier window in virtual nanoseconds.
// It should be a fraction of a typical transaction's critical-section
// length so that lock-hold intervals are visible to concurrent threads.
const DefaultWindow = 1000

// Engine coordinates the virtual clocks of a set of threads.
//
// Two scheduling modes exist. The default (concurrent) mode lets all
// attached threads run on host cores simultaneously and only
// synchronizes at window boundaries; intra-window interleaving is
// whatever the host scheduler produces, so results are reproducible
// only "up to barrier-window interleaving". Lockstep mode
// (NewLockstepEngine) instead runs exactly one thread at a time —
// within each window, threads execute one after another in ascending
// id order, each until its clock crosses the window boundary. That
// makes a simulation a pure function of its configuration and seeds:
// bit-identical across runs, hosts, and host load, which is what the
// experiment harness's measurements and the sweep engine's
// serial/parallel equivalence rely on. The synchronization frequency
// is the same in both modes (one handoff per thread per window);
// lockstep merely forfeits intra-cell host parallelism, which the
// experiment runner wins back by running independent cells on
// different cores.
//
// The lockstep handoff is a direct grant: each Thread carries its own
// one-slot grant channel, and the scheduler wakes exactly the chosen
// successor (no broadcast, no spurious wakeups — the previous design
// woke every parked goroutine per grant, O(threads) scheduler work per
// thread per window). Parked threads whose clock is inside the current
// window sit in a ready queue ordered by id; threads that have already
// crossed the boundary wait in an unordered overflow set and are
// promoted when the window advances. The grant order — lowest id among
// parked threads inside the window, window advanced only when none
// qualifies — is exactly the documented schedule, so archived lockstep
// results stay bit-identical across the scheduler implementations.
//
// The zero value is not usable; call NewEngine or NewLockstepEngine.
type Engine struct {
	winSize int64
	window  atomic.Int64 // current window end (exclusive)

	mu      sync.Mutex
	cond    *sync.Cond // concurrent-mode barrier
	active  int        // attached, running threads
	waiting int        // threads blocked at the window boundary (concurrent mode)

	// Lockstep-mode state: at most one thread (the "floor" holder)
	// executes at any instant; the rest are parked. A thread is granted
	// the floor only when every attached thread is parked, so the grant
	// order — ascending id among threads whose clock is inside the
	// current window — cannot depend on goroutine start-up races.
	lockstep bool
	floor    *Thread
	ready    []*Thread // parked, clock inside window; sorted by descending id
	future   []*Thread // parked, clock at/past the window end; unordered
}

// NewEngine returns a concurrent-mode engine whose barrier window is
// winSize virtual nanoseconds. winSize <= 0 selects DefaultWindow.
func NewEngine(winSize int64) *Engine {
	if winSize <= 0 {
		winSize = DefaultWindow
	}
	e := &Engine{winSize: winSize}
	e.cond = sync.NewCond(&e.mu)
	e.window.Store(winSize)
	return e
}

// NewLockstepEngine returns a deterministic engine: threads take
// turns in ascending id order within each window instead of racing on
// host cores, so repeated simulations are bit-identical. See the
// Engine doc for the trade-off.
func NewLockstepEngine(winSize int64) *Engine {
	e := NewEngine(winSize)
	e.lockstep = true
	return e
}

// Lockstep reports whether the engine schedules deterministically.
func (e *Engine) Lockstep() bool { return e.lockstep }

// WindowSize reports the barrier window in virtual nanoseconds.
func (e *Engine) WindowSize() int64 { return e.winSize }

// NewThread attaches a new simulated thread to the engine. The thread
// starts at the beginning of the current window, so threads created
// after others have run (e.g. workers attaching after a setup phase)
// join the present rather than replaying the past unsynchronized. The
// returned Thread must be used by a single goroutine and must be
// Detached when that goroutine finishes, or the remaining threads
// will block forever at the next window boundary.
func (e *Engine) NewThread(id int) *Thread {
	e.mu.Lock()
	e.active++
	w := e.window.Load()
	start := w - e.winSize
	if start < 0 {
		start = 0
	}
	t := &Thread{engine: e, id: id, clock: start}
	if e.lockstep {
		// The first engine call parks and takes a turn; until then the
		// thread holds no floor and must not fast-path past a boundary.
		t.grant = make(chan struct{}, 1)
	} else {
		// Concurrent mode: the window only grows, so a cached end that
		// lags the real one merely sends the thread down the slow path.
		t.winEnd = w
	}
	e.mu.Unlock()
	return t
}

// waitUntil blocks the calling thread until the global window has
// advanced past vt. It implements a generation-style barrier: the last
// thread to arrive advances the window and wakes everyone.
// Concurrent mode only.
func (e *Engine) waitUntil(vt int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for vt >= e.window.Load() {
		e.waiting++
		if e.waiting >= e.active {
			e.advanceWindowLocked()
		} else {
			w := e.window.Load()
			for e.window.Load() == w {
				e.cond.Wait()
			}
			// The window advanced; our waiting increment was
			// consumed by the reset in advanceWindowLocked.
		}
	}
}

// advanceWindowLocked moves the window forward one step and releases
// all waiters. Caller holds e.mu. Concurrent mode only.
func (e *Engine) advanceWindowLocked() {
	e.waiting = 0
	e.window.Store(e.window.Load() + e.winSize)
	e.cond.Broadcast()
}

// detach removes a thread from the barrier set. If the detaching
// thread was the only one the rest were waiting for, the window is
// advanced (concurrent mode) or the floor is handed on (lockstep) so
// they can proceed.
func (e *Engine) detach(t *Thread) {
	e.mu.Lock()
	e.active--
	if e.lockstep {
		if e.floor == t {
			e.floor = nil
		} else {
			// Defensive: the owning goroutine cannot be parked while it
			// calls Detach, but tolerate it anyway.
			e.removeParkedLocked(t)
		}
		e.scheduleLocked()
	} else if e.active > 0 && e.waiting >= e.active {
		e.advanceWindowLocked()
	}
	e.mu.Unlock()
}

// Park takes the thread out of the barrier set until Resume: the
// remaining threads cross window boundaries without waiting for it,
// and if they are all already waiting the window advances now. A
// parked thread must make no engine call but Resume. Concurrent mode
// only — a lockstep schedule has no way to skip a thread's turn.
func (t *Thread) Park() {
	e := t.engine
	if e.lockstep {
		panic("simtime: Park on a lockstep engine")
	}
	e.mu.Lock()
	e.active--
	if e.active > 0 && e.waiting >= e.active {
		e.advanceWindowLocked()
	}
	e.mu.Unlock()
}

// Resume puts a parked thread back into the barrier set at the
// machine's present: its clock moves up to the start of the current
// window if it lags it, the same rule NewThread applies, so the
// thread neither replays the past nor holds the others back.
func (t *Thread) Resume() {
	e := t.engine
	e.mu.Lock()
	e.active++
	w := e.window.Load()
	t.clock = max(t.clock, w-e.winSize)
	t.winEnd = w
	e.mu.Unlock()
}

// removeParkedLocked drops t from whichever parked set holds it.
// Caller holds e.mu.
func (e *Engine) removeParkedLocked(t *Thread) {
	for i, th := range e.ready {
		if th == t {
			e.ready = append(e.ready[:i], e.ready[i+1:]...)
			return
		}
	}
	for i, th := range e.future {
		if th == t {
			e.future = append(e.future[:i], e.future[i+1:]...)
			return
		}
	}
}

// park blocks t until the lockstep scheduler grants it the floor.
// On return t is the engine's only executing thread.
func (e *Engine) park(t *Thread) {
	e.mu.Lock()
	if e.floor == t {
		e.floor = nil
	}
	if t.clock < e.window.Load() {
		e.pushReadyLocked(t)
	} else {
		e.future = append(e.future, t)
	}
	e.scheduleLocked()
	e.mu.Unlock()
	<-t.grant
}

// pushReadyLocked inserts t into the ready queue, which is kept sorted
// by descending id so that the next grant — the lowest id — pops off
// the tail in O(1). Insertion position is found by binary search;
// thread counts are small enough that the splice memmove is noise.
// Caller holds e.mu.
func (e *Engine) pushReadyLocked(t *Thread) {
	i := sort.Search(len(e.ready), func(i int) bool { return e.ready[i].id < t.id })
	e.ready = append(e.ready, nil)
	copy(e.ready[i+1:], e.ready[i:])
	e.ready[i] = t
}

// scheduleLocked grants the floor to the next runnable thread: the
// lowest-id parked thread whose clock is inside the current window,
// advancing the window (and promoting future arrivals) when no parked
// thread qualifies. Grants happen only when every attached thread is
// parked — a thread that is attached but still running toward its
// first engine call (or toward its park) pauses scheduling until it
// arrives, which keeps the turn order independent of goroutine
// start-up timing. Exactly one goroutine is woken per grant. Caller
// holds e.mu.
func (e *Engine) scheduleLocked() {
	if !e.lockstep || e.floor != nil || e.active == 0 || len(e.ready)+len(e.future) < e.active {
		return
	}
	for {
		if n := len(e.ready); n > 0 {
			t := e.ready[n-1]
			e.ready[n-1] = nil
			e.ready = e.ready[:n-1]
			e.floor = t
			t.winEnd = e.window.Load()
			t.grant <- struct{}{}
			return
		}
		// Nobody inside the window: open the next one and promote the
		// future threads it now covers.
		w := e.window.Load() + e.winSize
		e.window.Store(w)
		kept := e.future[:0]
		for _, th := range e.future {
			if th.clock < w {
				e.pushReadyLocked(th)
			} else {
				kept = append(kept, th)
			}
		}
		for i := len(kept); i < len(e.future); i++ {
			e.future[i] = nil
		}
		e.future = kept
	}
}

// Thread is one simulated hardware thread's virtual clock. All methods
// must be called from the single goroutine that owns the thread.
type Thread struct {
	engine *Engine
	id     int
	clock  int64
	// winEnd caches the end of the window the thread may run in without
	// re-synchronizing: the clock may advance freely below it. In
	// lockstep mode the scheduler stamps it at grant time; in concurrent
	// mode it trails the shared window (which only grows), so a stale
	// value is conservative.
	winEnd int64
	done   bool
	// hasFloor tracks lockstep-mode floor ownership. It is read and
	// written only by the owning goroutine (the engine's grant is
	// observed through the grant channel before the flag is set).
	hasFloor bool
	// grant is the thread's private wakeup slot: the scheduler hands the
	// floor over by sending one token. Lockstep mode only.
	grant chan struct{}
}

// ID reports the thread's identifier as passed to NewThread.
func (t *Thread) ID() int { return t.id }

// ensureFloor blocks until the thread holds the lockstep floor (the
// right to be the engine's only executing thread). It is a no-op in
// concurrent mode, when the floor is already held, or after Detach.
func (t *Thread) ensureFloor() {
	if !t.engine.lockstep || t.done || t.hasFloor {
		return
	}
	t.engine.park(t)
	t.hasFloor = true
}

// Now reports the thread's current virtual time in nanoseconds. In
// lockstep mode this is also the point where a freshly attached
// thread first takes its turn, so worker loops serialize before they
// touch any shared simulated state.
func (t *Thread) Now() int64 {
	t.ensureFloor()
	return t.clock
}

// Advance moves the thread's clock forward by d nanoseconds, blocking
// at window boundaries until other threads catch up. d < 0 panics.
func (t *Thread) Advance(d int64) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: negative advance %d", d))
	}
	t.AdvanceTo(t.clock + d)
}

// AdvanceTo moves the thread's clock forward to vt if vt is in the
// future; a vt in the past is a no-op (the thread has already passed
// it). Blocks at window boundaries; in lockstep mode crossing a
// boundary also yields the floor so the next thread can take its turn.
func (t *Thread) AdvanceTo(vt int64) {
	t.ensureFloor()
	if vt <= t.clock {
		return
	}
	t.clock = vt
	if vt < t.winEnd {
		return
	}
	if t.engine.lockstep {
		t.hasFloor = false
		t.engine.park(t)
		t.hasFloor = true
	} else {
		t.engine.waitUntil(vt)
		t.winEnd = t.engine.window.Load()
	}
}

// Detach removes the thread from the engine's barrier. The thread's
// clock remains readable but Advance must not be called afterwards.
// Detach is idempotent.
func (t *Thread) Detach() {
	if t.done {
		return
	}
	t.done = true
	t.hasFloor = false
	t.engine.detach(t)
}
