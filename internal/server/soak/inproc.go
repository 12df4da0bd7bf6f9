package soak

import (
	"fmt"
	"sync/atomic"
	"time"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/server"
)

// inprocTarget soaks a durable Store inside this process. No sockets
// and no real signals: the "kill" is an armed crash hook that
// detonates a simulated power failure inside the next transaction
// commit, and restart is Crash + SaveImage + FinishJournal + reopen —
// the exact sequence the crash-recovery unit tests use, but driven
// continuously under concurrent load. Deterministic enough to run in
// CI's unit-test budget, and a cheap home for the gate's self-test.
type inprocTarget struct {
	cfg   Config
	algo  core.Algo
	dom   durability.Domain
	armed atomic.Bool
	dirty bool // this cycle ends in a kill, not a clean stop

	st   *server.Store
	exec *server.Executor
}

func newInprocTarget(cfg Config) (*inprocTarget, error) {
	if cfg.Image == "" {
		return nil, fmt.Errorf("soak: inproc mode needs -image")
	}
	t := &inprocTarget{cfg: cfg}
	var ok bool
	if t.algo, ok = core.ParseAlgo(cfg.Algo); !ok {
		return nil, fmt.Errorf("soak: unknown algo %q", cfg.Algo)
	}
	var err error
	if t.dom, err = durability.Parse(cfg.Domain); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *inprocTarget) start() error {
	st, err := server.OpenDurable(t.cfg.Image, server.StoreConfig{
		Algo: t.algo, Domain: t.dom, Shards: t.cfg.Shards, Heap: t.cfg.Heap,
	})
	if err != nil {
		return err
	}
	t.armed.Store(false)
	st.TM().SetCrashHook(func(p string, th *core.Thread) {
		if t.armed.Load() {
			panic(core.PowerFailure{Point: p})
		}
	})
	t.st = st
	t.exec = server.NewExecutor(st, server.ExecConfig{
		Shards: t.cfg.Shards, DeadlineNS: -1, IdleSleep: 20 * time.Microsecond,
	})
	return nil
}

// submit pushes one request through the executor with a host-time
// bound. A request stuck on a dead shard (its worker died at the
// injected power failure) times out as maybe-applied — its commit
// marker may or may not have made the durability domain.
func (t *inprocTarget) submit(req *server.Request, timeout time.Duration) outcome {
	req.Done = make(chan struct{})
	if !t.exec.Submit(req) {
		return outcome{} // full queue or draining: never enqueued
	}
	select {
	case <-req.Done:
		if req.Shed || req.Err == server.ErrDraining {
			return outcome{} // dropped without executing
		}
		return outcome{acked: true}
	case <-time.After(timeout):
		return outcome{maybe: 1}
	}
}

func (t *inprocTarget) verifyGet(key string) (bool, uint64, error) {
	req := &server.Request{Op: server.OpGet, Key: []byte(key)}
	o := t.submit(req, 5*time.Second)
	if !o.acked {
		return false, 0, fmt.Errorf("verification get did not complete")
	}
	if !req.Found {
		return false, 0, nil
	}
	var v uint64
	if _, err := fmt.Sscanf(string(req.Val), "%d", &v); err != nil {
		return false, 0, fmt.Errorf("non-numeric payload %q", req.Val)
	}
	return true, v, nil
}

type inprocTransport struct{ t *inprocTarget }

func (t *inprocTarget) transport(i int, seed uint64) transport {
	return &inprocTransport{t: t}
}

func (tr *inprocTransport) close() {}

const opTimeout = 500 * time.Millisecond

func (tr *inprocTransport) set(key string, val uint64) outcome {
	req := &server.Request{Op: server.OpSet, Key: []byte(key), Value: fmt.Appendf(nil, "%d", val)}
	o := tr.t.submit(req, opTimeout)
	if o.acked && req.Err != nil {
		return outcome{maybe: 1} // executed but refused; treat as unknown
	}
	return o
}

func (tr *inprocTransport) get(key string) (outcome, bool, uint64) {
	req := &server.Request{Op: server.OpGet, Key: []byte(key)}
	o := tr.t.submit(req, opTimeout)
	if o.acked && req.Err != nil {
		return outcome{}, false, 0 // refused (fail-stop): observed nothing
	}
	if !o.acked || !req.Found {
		return o, false, 0
	}
	var v uint64
	if _, err := fmt.Sscanf(string(req.Val), "%d", &v); err != nil {
		return o, true, ^uint64(0) // torn payload: impossible observation
	}
	return o, true, v
}

func (tr *inprocTransport) incr(key string, delta uint64) (outcome, bool, uint64) {
	req := &server.Request{Op: server.OpIncr, Key: []byte(key), Delta: delta}
	o := tr.t.submit(req, opTimeout)
	switch {
	case !o.acked:
		// Not completed (timed out, shed, or never enqueued): the shard
		// worker may still own req, so its result fields are off limits.
		return o, false, 0
	case req.Err != nil:
		return outcome{maybe: 1}, false, 0
	}
	return o, req.Found, req.NewVal
}

func (tr *inprocTransport) del(key string) (outcome, bool) {
	req := &server.Request{Op: server.OpDelete, Key: []byte(key)}
	o := tr.t.submit(req, opTimeout)
	switch {
	case !o.acked:
		return o, false // as in incr: req may still belong to the worker
	case req.Err != nil:
		return outcome{maybe: 1}, false
	}
	return o, req.Found
}

// kill arms the crash hook: the next protocol point any shard thread
// reaches detonates a power failure there. "term" alone stops clean;
// every other mode is the same in-process fault (there is no signal
// delivery or image-save race without a real process).
func (t *inprocTarget) kill(mode string, rng *prand) error {
	if mode == "term" {
		return nil
	}
	time.Sleep(rng.durBetween(0, 5*time.Millisecond)) // vary the cut point
	t.dirty = true
	t.armed.Store(true)
	return nil
}

// awaitDead completes the cycle's power-failure semantics: drain the
// executor (dead shards are already gone), cut the device at the
// latest shard timestamp, persist the post-failure image the next
// start recovers from, and retire the journal the save made stale.
func (t *inprocTarget) awaitDead() error {
	t.exec.Drain()
	vt := t.exec.LastVT()
	t.armed.Store(false)
	dirty := t.dirty
	t.dirty = false
	if t.cfg.NoDurable && dirty {
		// The weakened target's injected fault, as in process mode: a
		// kill saves no image and takes the journal with it. Every
		// write acked since the last clean stop evaporates, and the
		// restart resurrects the previous image — the self-test
		// expects the oracle to flag every one of those lost acks.
		t.st.FinishJournal()
		return nil
	}
	t.st.Crash(vt)
	if err := t.st.SaveImage(t.cfg.Image); err != nil {
		return err
	}
	t.st.FinishJournal()
	return nil
}

func (t *inprocTarget) shutdown() error { return t.awaitDead() }

// flight: the in-process target dies by simulated power failure, not
// SIGKILL, and keeps no sidecar — there is nothing to harvest.
func (t *inprocTarget) flight() *FlightHarvest { return nil }
