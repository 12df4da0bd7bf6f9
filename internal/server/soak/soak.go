package soak

import (
	"fmt"
	"sync"
	"time"

	"goptm/internal/simtime"
)

// Config parameterizes one soak run. Zero values select the defaults
// noted per field.
type Config struct {
	// Mode selects the target: "process" drives a real ptmserve
	// binary over TCP with real signals; "inproc" drives a Store in
	// this process with simulated power failures (deterministic
	// scheduling, no sockets).
	Mode string

	Bin   string // process: path to the ptmserve binary
	Image string // image file path (the WAL rides next to it)

	Duration      time.Duration // total run budget; 0: 30s
	Clients       int           // concurrent workers; 0: 4
	KeysPerClient int           // keys each worker owns; 0: 16

	// KillMode picks the injected fault per cycle: "kill" (SIGKILL
	// mid-load), "term" (clean SIGTERM drain), "term-race" (SIGTERM
	// then SIGKILL during the drain), "save-race" (SIGKILL timed into
	// the image save), or "mix" (rotate through all of them).
	KillMode string
	KillMin  time.Duration // earliest kill after a cycle starts; 0: 2s
	KillMax  time.Duration // latest; 0: 3.5s

	Seed uint64 // workload + kill-timing seed; 0: 1

	// Store shape, forwarded to the target.
	Algo   string // 0: "redo"
	Domain string // 0: "ADR"
	Shards int    // 0: 4
	Heap   uint64 // persistent heap words; 0: 1<<18 (small, fast cycles)

	// FlightTail bounds the flight-recorder records harvested into the
	// verdict after each kill (process mode); 0 selects 32.
	FlightTail int

	// NoDurable weakens the target on purpose, from the harness side:
	// after every injected kill the journal is thrown away and no image
	// is saved — process mode removes <image>.wal before the restart,
	// inproc mode finishes the journal without a save — so the restart
	// finds only the last saved image. The gate's self-test sets it to
	// prove the oracle actually catches acked-write loss.
	NoDurable bool

	Logf func(format string, args ...any) // progress log; nil: silent
}

func (c Config) withDefaults() Config {
	if c.Mode == "" {
		c.Mode = "process"
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.KeysPerClient <= 0 {
		c.KeysPerClient = 16
	}
	if c.KillMode == "" {
		c.KillMode = "mix"
	}
	if c.KillMin <= 0 {
		c.KillMin = 2 * time.Second
	}
	if c.KillMax < c.KillMin {
		c.KillMax = c.KillMin + 1500*time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Algo == "" {
		c.Algo = "redo"
	}
	if c.Domain == "" {
		c.Domain = "ADR"
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Heap == 0 {
		c.Heap = 1 << 18
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// mixRotation is the fault sequence "mix" cycles through.
var mixRotation = []string{"kill", "term-race", "save-race", "kill", "term"}

// killModeFor resolves the fault for a 1-based cycle number.
func (c Config) killModeFor(cycle int) string {
	if c.KillMode == "mix" {
		return mixRotation[(cycle-1)%len(mixRotation)]
	}
	return c.KillMode
}

// Violation is one durable-linearizability failure.
type Violation struct {
	Cycle  int    `json:"cycle"`
	Phase  string `json:"phase"` // "run", "recover", or "final"
	Key    string `json:"key"`
	Op     string `json:"op"`
	Detail string `json:"detail"`
}

// Verdict is the run's outcome, JSON-encodable as the one-line
// machine-readable result ptmsoak prints.
type Verdict struct {
	Mode       string      `json:"mode"`
	OK         bool        `json:"ok"`
	Cycles     int         `json:"cycles"` // completed kill/restart cycles
	Kills      int         `json:"kills"`
	Ops        int64       `json:"ops"`      // operations attempted
	Acked      int64       `json:"acked"`    // positively confirmed
	Unknown    int64       `json:"unknown"`  // outcome never learned
	Rejected   int64       `json:"rejected"` // definite rejects (busy, dead server)
	Seed       uint64      `json:"seed"`
	KillMode   string      `json:"killmode"`
	Violations []Violation `json:"violations"`

	// Flight is the last harvested flight-recorder tail — the target's
	// final pre-kill telemetry window. Nil when the target keeps no
	// flight sidecar (inproc mode, flight disabled).
	Flight *FlightHarvest `json:"flight,omitempty"`
}

// Repro is the replayable description of a failed run: the exact
// configuration plus the violations it produced. ptmsoak -repro
// writes it; ptmsoak -replay re-runs it.
type Repro struct {
	Mode          string        `json:"mode"`
	Duration      time.Duration `json:"duration_ns"`
	Clients       int           `json:"clients"`
	KeysPerClient int           `json:"keys_per_client"`
	KillMode      string        `json:"killmode"`
	KillMin       time.Duration `json:"killmin_ns"`
	KillMax       time.Duration `json:"killmax_ns"`
	Seed          uint64        `json:"seed"`
	Algo          string        `json:"algo"`
	Domain        string        `json:"domain"`
	Shards        int           `json:"shards"`
	Heap          uint64        `json:"heap"`
	NoDurable     bool          `json:"no_durable"`
	Violations    []Violation   `json:"violations"`

	// Flight carries the failing run's harvested telemetry tail so a
	// repro file documents what the server was doing when it died.
	Flight *FlightHarvest `json:"flight,omitempty"`
}

// ReproOf captures cfg and the verdict's violations for replay.
func ReproOf(cfg Config, v Verdict) Repro {
	cfg = cfg.withDefaults()
	return Repro{
		Mode: cfg.Mode, Duration: cfg.Duration,
		Clients: cfg.Clients, KeysPerClient: cfg.KeysPerClient,
		KillMode: cfg.KillMode, KillMin: cfg.KillMin, KillMax: cfg.KillMax,
		Seed: cfg.Seed, Algo: cfg.Algo, Domain: cfg.Domain,
		Shards: cfg.Shards, Heap: cfg.Heap, NoDurable: cfg.NoDurable,
		Violations: v.Violations,
		Flight:     v.Flight,
	}
}

// ConfigOf rebuilds the runnable Config from a repro (bin and image
// are environment-specific and supplied fresh).
func ConfigOf(r Repro, bin, image string) Config {
	return Config{
		Mode: r.Mode, Bin: bin, Image: image, Duration: r.Duration,
		Clients: r.Clients, KeysPerClient: r.KeysPerClient,
		KillMode: r.KillMode, KillMin: r.KillMin, KillMax: r.KillMax,
		Seed: r.Seed, Algo: r.Algo, Domain: r.Domain,
		Shards: r.Shards, Heap: r.Heap, NoDurable: r.NoDurable,
	}
}

// prand is a splitmix64 stream — the same generator everywhere in
// the harness so a seed fully determines workload and kill timing.
type prand struct{ s uint64 }

func (r *prand) next() uint64 { return simtime.SplitMix64Next(&r.s) }

func (r *prand) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *prand) durBetween(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(r.next()%uint64(hi-lo))
}

// outcome classifies one wire operation for the oracle.
type outcome struct {
	acked bool
	maybe int // attempts whose effect is unknown
}

// transport is a worker's operation channel to the target. Values
// travel as uint64 (the workload writes decimal payloads).
type transport interface {
	set(key string, val uint64) outcome
	get(key string) (o outcome, found bool, val uint64)
	incr(key string, delta uint64) (o outcome, found bool, newVal uint64)
	del(key string) (o outcome, found bool)
	close()
}

// target abstracts the thing being soaked: process or in-process.
type target interface {
	// start boots (or reboots) the service and completes recovery;
	// the error distinguishes operational failures (bad binary) from
	// recovery refusals, which the engine records as violations.
	start() error
	// verifyGet reads key outside the load workers, for the
	// post-recovery sweep.
	verifyGet(key string) (found bool, val uint64, err error)
	// transport returns worker i's operation channel for this cycle.
	transport(i int, seed uint64) transport
	// kill injects the fault for mode; rng times the races.
	kill(mode string, rng *prand) error
	// awaitDead blocks until the service is fully down.
	awaitDead() error
	// flight returns the latest flight-recorder harvest (nil when the
	// target keeps no sidecar).
	flight() *FlightHarvest
	// shutdown stops the service cleanly (final cycle).
	shutdown() error
}

// worker is one load generator: a private transport, a private key
// range, and the oracle models for those keys.
type worker struct {
	id     int
	keys   []string
	models map[string]*keyModel
	rng    prand

	ops, acked, unknown, rejected int64
	violations                    []Violation
}

func newWorker(id, keysPer int, seed uint64) *worker {
	w := &worker{id: id, models: make(map[string]*keyModel), rng: prand{s: seed}}
	for k := 0; k < keysPer; k++ {
		key := fmt.Sprintf("soak-c%d-k%d", id, k)
		w.keys = append(w.keys, key)
		w.models[key] = newKeyModel()
	}
	return w
}

// runCycle generates load until stop closes. Each op's outcome feeds
// the oracle; inconsistencies are recorded, not fatal — the run
// finishes and reports them all.
func (w *worker) runCycle(tr transport, cycle int, stop <-chan struct{}) {
	defer tr.close()
	for {
		select {
		case <-stop:
			return
		default:
		}
		key := w.keys[w.rng.intn(len(w.keys))]
		m := w.models[key]
		w.ops++
		switch p := w.rng.intn(100); {
		case p < 50: // set
			v := w.rng.next() % 1_000_000
			o := tr.set(key, v)
			switch {
			case o.acked:
				w.acked++
				m.ackedSet(v)
			case o.maybe > 0:
				w.unknown++
				m.uncertainSet(v)
			default:
				w.rejected++
			}
		case p < 75: // get
			o, found, val := tr.get(key)
			if !o.acked {
				w.rejected++
				continue
			}
			w.acked++
			if d := m.observe(found, val); d != "" {
				w.violate(cycle, "run", key, "get", d)
			}
		case p < 90: // incr
			delta := uint64(1 + w.rng.intn(3))
			o, found, nv := tr.incr(key, delta)
			switch {
			case o.acked:
				w.acked++
				if d := m.ackedIncr(found, nv, delta); d != "" {
					w.violate(cycle, "run", key, "incr", d)
				}
			case o.maybe > 0:
				w.unknown++
				m.uncertainIncr(delta, o.maybe)
			default:
				w.rejected++
			}
		default: // delete
			o, found := tr.del(key)
			switch {
			case o.acked:
				w.acked++
				if d := m.ackedDelete(found); d != "" {
					w.violate(cycle, "run", key, "delete", d)
				}
			case o.maybe > 0:
				w.unknown++
				m.uncertainDelete()
			default:
				w.rejected++
			}
		}
	}
}

func (w *worker) violate(cycle int, phase, key, op, detail string) {
	w.violations = append(w.violations, Violation{
		Cycle: cycle, Phase: phase, Key: key, Op: op, Detail: detail,
	})
}

// maxViolations caps the report; a broken target would otherwise
// drown the verdict in thousands of identical failures.
const maxViolations = 32

// Run executes the soak and returns the verdict. A non-nil error is
// operational (missing binary, unwritable image path) — oracle
// failures are reported in the verdict, not the error.
func Run(cfg Config) (Verdict, error) {
	cfg = cfg.withDefaults()
	v := Verdict{Mode: cfg.Mode, Seed: cfg.Seed, KillMode: cfg.KillMode}

	var tgt target
	var err error
	switch cfg.Mode {
	case "process":
		tgt, err = newProcTarget(cfg)
	case "inproc":
		tgt, err = newInprocTarget(cfg)
	default:
		err = fmt.Errorf("soak: unknown mode %q", cfg.Mode)
	}
	if err != nil {
		return v, err
	}

	workers := make([]*worker, cfg.Clients)
	seedRng := prand{s: cfg.Seed}
	for i := range workers {
		workers[i] = newWorker(i, cfg.KeysPerClient, seedRng.next())
	}
	killRng := prand{s: seedRng.next()}

	deadline := time.Now().Add(cfg.Duration)
	collect := func() {
		for _, w := range workers {
			v.Ops += w.ops
			v.Acked += w.acked
			v.Unknown += w.unknown
			v.Rejected += w.rejected
			v.Violations = append(v.Violations, w.violations...)
			w.ops, w.acked, w.unknown, w.rejected, w.violations = 0, 0, 0, 0, nil
		}
		if len(v.Violations) > maxViolations {
			v.Violations = v.Violations[:maxViolations]
		}
	}

	verifyAll := func(cycle int, phase string) {
		for _, w := range workers {
			for _, key := range w.keys {
				found, val, err := tgt.verifyGet(key)
				if err != nil {
					w.violate(cycle, phase, key, "verify", fmt.Sprintf("verification read failed: %v", err))
					continue
				}
				if d := w.models[key].observe(found, val); d != "" {
					w.violate(cycle, phase, key, "verify", d)
				}
			}
		}
	}

	cycle := 0
	for time.Now().Before(deadline) {
		cycle++
		if err := tgt.start(); err != nil {
			if cycle == 1 {
				return v, fmt.Errorf("soak: first start: %w", err)
			}
			// A service that cannot come back after an injected fault
			// has lost the whole image — the worst durability failure.
			workers[0].violate(cycle, "recover", "", "start", err.Error())
			collect()
			v.Cycles = cycle - 1
			v.Flight = tgt.flight()
			return v, nil
		}
		verifyAll(cycle, "recover")
		cfg.Logf("cycle %d: recovered and verified %d keys", cycle, cfg.Clients*cfg.KeysPerClient)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for i, w := range workers {
			wg.Add(1)
			go func(i int, w *worker) {
				defer wg.Done()
				w.runCycle(tgt.transport(i, cfg.Seed+uint64(i)*0x9e37), cycle, stop)
			}(i, w)
		}

		wait := killRng.durBetween(cfg.KillMin, cfg.KillMax)
		if rem := time.Until(deadline); rem < wait {
			wait = rem
		}
		time.Sleep(wait)

		mode := cfg.killModeFor(cycle)
		if err := tgt.kill(mode, &killRng); err != nil {
			close(stop)
			wg.Wait()
			collect()
			return v, fmt.Errorf("soak: inject %s: %w", mode, err)
		}
		v.Kills++
		close(stop)
		wg.Wait()
		if err := tgt.awaitDead(); err != nil {
			collect()
			return v, fmt.Errorf("soak: await exit: %w", err)
		}
		collect()
		v.Cycles = cycle
		cfg.Logf("cycle %d: injected %s (%d ops so far, %d acked, %d unknown)", cycle, mode, v.Ops, v.Acked, v.Unknown)
	}

	// Final cycle: recover once more, verify everything, stop clean.
	if err := tgt.start(); err != nil {
		workers[0].violate(cycle+1, "final", "", "start", err.Error())
	} else {
		verifyAll(cycle+1, "final")
		if err := tgt.shutdown(); err != nil {
			collect()
			return v, fmt.Errorf("soak: final shutdown: %w", err)
		}
	}
	collect()
	v.OK = len(v.Violations) == 0
	v.Flight = tgt.flight()
	return v, nil
}
