package core

import (
	"fmt"

	"goptm/internal/alloc"
	"goptm/internal/durability"
	"goptm/internal/membus"
	"goptm/internal/memdev"
	"goptm/internal/metrics"
	"goptm/internal/obs"
	"goptm/internal/orec"
)

// TM is the persistent transactional memory runtime.
type TM struct {
	cfg    Config
	bus    *membus.Bus
	orecs  *orec.Table
	heap   *alloc.Heap
	base   memdev.Addr // medium base: 0 (NVM) or memdev.DRAMBase
	stride uint64      // descriptor stride in words
	rec    *obs.Recorder

	// met is the counter registry — the single home of the
	// commit/abort/abort-reason counters. Always non-nil: when the
	// configuration supplies none, a private zero-config registry
	// provides the same atomic counters the TM previously kept ad hoc.
	met *metrics.Registry

	// crashHook, when non-nil, is invoked at named points of the
	// commit protocols so crash-recovery tests can cut execution at
	// every interesting instant. Production paths never set it.
	crashHook func(point string, th *Thread)
}

// SetCrashHook installs a protocol-point callback (testing only).
// Points, in protocol order:
//
//	lazy  : "lazy:pre-log-flush", "lazy:pre-marker", "lazy:post-marker",
//	        "lazy:mid-writeback", "lazy:post-writeback",
//	        "lazy:post-reclaim"
//	eager : "eager:pre-log", "eager:pre-marker", "eager:post-log",
//	        "eager:post-update" (per write); "eager:pre-clear",
//	        "eager:post-clear" (commit); "eager:post-rollback" (abort)
//	htm   : "htm:pre-publish", "htm:post-publish" (the publish loop
//	        between them models a hardware-atomic TSX commit and must
//	        not be cut)
//
// To simulate an instant power failure, the hook should panic with a
// PowerFailure value: Atomic propagates it without rolling anything
// back, leaving the persistent image exactly as the crash found it.
func (tm *TM) SetCrashHook(fn func(point string, th *Thread)) { tm.crashHook = fn }

// PowerFailure is the panic value crash-injection hooks use to stop
// the machine dead at a protocol point (see SetCrashHook).
type PowerFailure struct{ Point string }

func (tm *TM) hook(point string, th *Thread) {
	if tm.crashHook != nil {
		tm.crashHook(point, th)
	}
}

// mediumBase returns the base word address of the persistent medium.
func mediumBase(m Medium) memdev.Addr {
	if m == MediumDRAM {
		return memdev.DRAMBase
	}
	return 0
}

// BusConfig returns the memory-system configuration New would build
// for cfg: the device geometry derived from the thread count, log
// capacity, and heap size, plus the pass-through timing knobs. It is
// exported so a machine can be reconstructed around a restored media
// image (membus.New + memdev image restore + Reopen) — the path a
// persistent service takes across process restarts.
func BusConfig(cfg Config) membus.Config {
	cfg = cfg.withDefaults()
	meta := metaWords(cfg.Threads, cfg.MaxLogEntries)
	persist := meta + cfg.HeapWords

	scratch := cfg.ScratchDRAMWords
	if scratch == 0 {
		scratch = 1 << 16
	}
	var devCfg memdev.Config
	if cfg.Medium == MediumNVM {
		devCfg = memdev.Config{NVMWords: alignLine(persist), DRAMWords: alignLine(scratch)}
	} else {
		// DRAM-ramdisk configuration: persistent data in DRAM; a token
		// NVM region remains so the device is well formed.
		devCfg = memdev.Config{NVMWords: 64, DRAMWords: alignLine(persist + scratch)}
	}
	return membus.Config{
		Threads:    cfg.Threads,
		Domain:     cfg.Domain,
		Dev:        devCfg,
		Ctl:        cfg.Ctl,
		L3Lines:    cfg.L3Lines,
		PageFrames: cfg.PageFrames,
		WindowNS:   cfg.WindowNS,
		Lockstep:   cfg.Lockstep,
		Recorder:   cfg.Recorder,
		Metrics:    cfg.Metrics,
	}
}

// NewBus builds the simulated memory system New would attach to for
// cfg, including the PDRAM-Lite log-page routing that must be
// registered before any traffic. Pair it with Attach or Reopen to
// bring a TM up on a media image restored from elsewhere.
func NewBus(cfg Config) (*membus.Bus, error) {
	cfg = cfg.withDefaults()
	bus, err := membus.New(BusConfig(cfg))
	if err != nil {
		return nil, err
	}
	// Under PDRAM-Lite the per-thread log areas live in persistent
	// DRAM pages (the paper's design point: only redo logs are
	// cached). Register the routing before any traffic.
	if cfg.Domain == durability.PDRAMLite && cfg.Medium == MediumNVM {
		bus.RoutePages(mediumBase(cfg.Medium)+offDescs, uint64(cfg.Threads)*descStride(cfg.MaxLogEntries))
	}
	return bus, nil
}

// New builds the simulated machine, formats the TM's persistent
// metadata and heap, and returns the runtime.
func New(cfg Config) (*TM, error) {
	cfg = cfg.withDefaults()
	if cfg.Algo == AlgoHTM && cfg.Domain.RequiresFlush() {
		return nil, fmt.Errorf("core: HTM is incompatible with %v: a clwb inside a hardware transaction aborts it (use eADR or a PDRAM domain)", cfg.Domain)
	}
	meta := metaWords(cfg.Threads, cfg.MaxLogEntries)

	bus, err := NewBus(cfg)
	if err != nil {
		return nil, err
	}

	tm := &TM{
		cfg:    cfg,
		bus:    bus,
		orecs:  newOrecs(cfg),
		base:   mediumBase(cfg.Medium),
		stride: descStride(cfg.MaxLogEntries),
		rec:    cfg.Recorder,
		met:    ensureRegistry(cfg),
	}

	// Format persistent metadata with a temporary setup context.
	setup := bus.NewContext(0)
	setup.Store(tm.base+offTMMagic, tmMagic)
	setup.Store(tm.base+offThreads, uint64(cfg.Threads))
	setup.Store(tm.base+offMaxLog, uint64(cfg.MaxLogEntries))
	setup.Store(tm.base+offHeapSize, cfg.HeapWords)
	setup.CLWB(tm.base)
	for t := 0; t < cfg.Threads; t++ {
		d := tm.descBase(t)
		setup.Store(d+descStatusOff, packMarker(statusIdle, 0, 0))
		setup.CLWB(d)
	}
	setup.SFence()
	heap, err := alloc.Format(setup, tm.base+memdev.Addr(meta), cfg.HeapWords, rootSlots)
	if err != nil {
		setup.Detach()
		return nil, err
	}
	tm.heap = heap
	setup.Detach()
	return tm, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *TM {
	tm, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return tm
}

// newOrecs builds the orec table for cfg: lockstep configurations get
// the serial (atomic-free) table, relying on the floor handoff for
// ordering.
func newOrecs(cfg Config) *orec.Table {
	if cfg.Lockstep {
		return orec.NewSerial(cfg.OrecSize)
	}
	return orec.New(cfg.OrecSize)
}

// ensureRegistry returns the configured metrics registry, or a private
// zero-config one so the TM's outcome counters always have a home.
func ensureRegistry(cfg Config) *metrics.Registry {
	if cfg.Metrics != nil {
		return cfg.Metrics
	}
	return metrics.New(metrics.Config{Serial: cfg.Lockstep})
}

func alignLine(w uint64) uint64 {
	return (w + memdev.WordsPerLine - 1) &^ uint64(memdev.WordsPerLine-1)
}

// descBase returns thread t's descriptor base address.
func (tm *TM) descBase(t int) memdev.Addr {
	return tm.base + offDescs + memdev.Addr(uint64(t)*tm.stride)
}

// Bus exposes the memory system.
func (tm *TM) Bus() *membus.Bus { return tm.bus }

// Heap exposes the persistent allocator.
func (tm *TM) Heap() *alloc.Heap { return tm.heap }

// Orecs exposes the orec table (tests and recovery).
func (tm *TM) Orecs() *orec.Table { return tm.orecs }

// Config returns the runtime's configuration (after defaulting).
func (tm *TM) Config() Config { return tm.cfg }

// Recorder exposes the attached observability recorder (nil when
// observability is off).
func (tm *TM) Recorder() *obs.Recorder { return tm.rec }

// Metrics exposes the counter registry (always non-nil).
func (tm *TM) Metrics() *metrics.Registry { return tm.met }

// Commits reports the total committed transactions.
func (tm *TM) Commits() int64 { return tm.met.Get(metrics.CtrCommits) }

// Aborts reports the total aborted transaction attempts.
func (tm *TM) Aborts() int64 { return tm.met.Get(metrics.CtrAborts) }

// SetRoot durably publishes a root pointer (see alloc.Heap.SetRoot).
func (tm *TM) SetRoot(th *Thread, slot int, a memdev.Addr) {
	tm.heap.SetRoot(th.ctx, slot, a)
}

// Root reads a root pointer.
func (tm *TM) Root(th *Thread, slot int) memdev.Addr {
	return tm.heap.Root(th.ctx, slot)
}

// Crash simulates a power failure at virtual time vt: the durability
// domain's policy is applied and all volatile state (caches, page
// cache, orec table) is lost. Call Recover to bring the heap back to
// a consistent state before reuse.
func (tm *TM) Crash(vt int64) {
	tm.bus.Crash(vt)
	tm.orecs.Reset()
}

// CrashWith is Crash with an adversarial fault plan layered on the
// domain's policy (see memdev.CrashWith); the crash checker uses it to
// explore worst-case WPQ drains and torn lines.
func (tm *TM) CrashWith(vt int64, faults []memdev.LineFault) {
	tm.bus.CrashWith(vt, faults)
	tm.orecs.Reset()
}

// Attach re-opens a TM on an existing bus after a crash, validating
// the persistent superblock. It does not run recovery; call Recover.
func Attach(bus *membus.Bus, cfg Config) (*TM, error) {
	cfg = cfg.withDefaults()
	tm := &TM{
		cfg:    cfg,
		bus:    bus,
		orecs:  newOrecs(cfg),
		base:   mediumBase(cfg.Medium),
		stride: descStride(cfg.MaxLogEntries),
		rec:    cfg.Recorder,
		met:    ensureRegistry(cfg),
	}
	probe := bus.NewContext(0)
	defer probe.Detach()
	if got := probe.Load(tm.base + offTMMagic); got != tmMagic {
		return nil, fmt.Errorf("core: bad TM magic %#x", got)
	}
	if got := probe.Load(tm.base + offThreads); got != uint64(cfg.Threads) {
		return nil, fmt.Errorf("core: thread count mismatch: stored %d, config %d", got, cfg.Threads)
	}
	if got := probe.Load(tm.base + offMaxLog); got != uint64(cfg.MaxLogEntries) {
		return nil, fmt.Errorf("core: log size mismatch: stored %d, config %d", got, cfg.MaxLogEntries)
	}
	return tm, nil
}
