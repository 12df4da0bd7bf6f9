// Package membus ties the simulated memory system together: it is the
// interface the PTM runtime programs against, the equivalent of the
// load/store/clwb/sfence instructions on a real machine.
//
// Every operation is charged virtual time on the calling thread's
// clock:
//
//	Load   — probes the cache hierarchy; misses are serviced by the
//	         DRAM channel, the NVM media, or (when the address routes
//	         through the Memory-Mode page cache) a DRAM frame or a
//	         page fault.
//	Store  — write-allocate; dirty L3 evictions generate writebacks
//	         that feed the WPQ (this is how eADR workloads still
//	         pressure the Optane media even without explicit flushes).
//	CLWB   — under ADR/NoReserve, cleans the line and enqueues it into
//	         the WPQ, stalling on queue backpressure; elided (no time,
//	         no effect) under eADR/PDRAM/PDRAM-Lite.
//	SFence — waits until every clwb issued since the previous fence
//	         has been accepted into the durability domain; elided when
//	         the domain does not require fences.
//
// The package also owns the crash entry point: Crash applies the
// durability domain's policy to produce the post-failure image.
package membus

import (
	"fmt"
	"sort"
	"sync"

	"goptm/internal/cachesim"
	"goptm/internal/durability"
	"goptm/internal/memdev"
	"goptm/internal/metrics"
	"goptm/internal/obs"
	"goptm/internal/pagecache"
	"goptm/internal/simtime"
	"goptm/internal/wpq"
)

// Latency gathers the fixed per-operation costs in virtual ns. Media
// port occupancy comes on top from the wpq controller.
type Latency struct {
	L1Hit        int64
	L2Hit        int64
	L3Hit        int64
	DRAMBase     int64 // uncore cost added to a DRAM-serviced miss
	NVMBase      int64 // uncore cost added to an NVM-serviced miss
	StoreHit     int64 // store completing in the store buffer / L1
	CLWBDram     int64 // thread-visible clwb latency, DRAM-backed line
	CLWBNvm      int64 // thread-visible clwb latency, NVM-backed line
	SFenceBase   int64
	MetaOp       int64 // one STM metadata operation (orec CAS, clock read)
	PageDirProbe int64 // Memory-Mode directory lookup
}

// DefaultLatency is calibrated from the paper (§III-A: clwb 86/94 ns;
// load latency 3× DRAM on L3 miss) and Izraelevitz et al. [46].
func DefaultLatency() Latency {
	return Latency{
		L1Hit:        2,
		L2Hit:        8,
		L3Hit:        30,
		DRAMBase:     46,
		NVMBase:      100,
		StoreHit:     2,
		CLWBDram:     86,
		CLWBNvm:      94,
		SFenceBase:   50,
		MetaOp:       8,
		PageDirProbe: 10,
	}
}

// Config assembles a Bus.
type Config struct {
	Threads    int
	Domain     durability.Domain
	Dev        memdev.Config
	Ctl        wpq.Config // zero value: wpq.DefaultConfig(Threads)
	L3Lines    int        // shared L3 size; 0 selects 16K lines (1 MB)
	PageFrames int        // DRAM page-cache frames (PDRAM/PDRAM-Lite); 0 selects 1024
	WindowNS   int64      // barrier window; 0 selects simtime.DefaultWindow
	// Lockstep selects the deterministic virtual-time scheduler:
	// threads take turns in id order within each barrier window, so a
	// simulation is bit-identical across runs and hosts (every harness
	// measurement and the sweep engine's serial/parallel equivalence
	// require this). The default concurrent scheduler exploits host
	// cores within a window but is reproducible only up to
	// barrier-window interleaving.
	Lockstep bool
	Lat      Latency // zero value selects DefaultLatency
	// NoPrefetch / NoAsyncWriteback disable the Memory-Mode controller
	// optimizations (II-A) for ablation.
	NoPrefetch       bool
	NoAsyncWriteback bool
	// Recorder attaches observability: per-thread stall spans
	// (fence-wait, WPQ stall, media wait). nil disables it at zero cost.
	Recorder *obs.Recorder
	// Metrics attaches the PMWatch-style counter registry: the memory
	// controller feeds its media model (XPLine write/read traffic) and
	// tracks the WPQ's maximum occupancy. nil disables it at zero cost.
	Metrics *metrics.Registry
}

// Bus is the assembled memory system.
type Bus struct {
	cfg    Config
	lat    Latency
	dev    *memdev.Device
	cache  *cachesim.Hierarchy
	ctl    *wpq.Controller
	pcache *pagecache.Cache
	engine *simtime.Engine
	domain durability.Domain
	rec    *obs.Recorder

	// Domain-dependent dispatch, resolved once at construction so the
	// per-operation path branches on flags instead of re-deriving
	// domain policy (clwb/sfence elision, page-cache routing) on every
	// load, store, and flush.
	lockstep    bool
	flushElided bool      // domain needs no clwb (eADR, PDRAM, PDRAM-Lite)
	fenceElided bool      // domain needs no sfence
	routeMode   routeKind // how NVM addresses route through the page cache

	routeMu sync.RWMutex // guards routed in concurrent mode
	routed  []pageRange  // sorted, disjoint; used by PDRAM-Lite

	// tap observes persist-relevant events (SetPersistTap); nil when
	// disabled, which is the measurement configuration.
	tap func(PersistEvent)
}

// routeKind is the construction-time resolution of routedNVM's
// domain-dependent branch.
type routeKind uint8

const (
	routeNone  routeKind = iota // no page cache on the NVM path
	routeAll                    // PDRAM: every NVM page routes
	routeTable                  // PDRAM-Lite: consult the registered ranges
)

type pageRange struct{ lo, hi uint64 } // [lo, hi) page numbers

// PersistEventKind classifies the persist-relevant memory events a
// crash checker can cut execution at.
type PersistEventKind uint8

// The persist-relevant event kinds. Each marks a boundary where the
// durable state changes: a store dirties a line, a clwb moves it
// toward the WPQ, an sfence orders prior flushes, an NT store lands in
// a write-combining buffer, and a WC drain moves that buffer into the
// WPQ.
const (
	PEStore PersistEventKind = iota
	PECLWB
	PESFence
	PENTStore
	PEWCDrain
)

// String names the kind for reports and repro files.
func (k PersistEventKind) String() string {
	switch k {
	case PEStore:
		return "store"
	case PECLWB:
		return "clwb"
	case PESFence:
		return "sfence"
	case PENTStore:
		return "ntstore"
	case PEWCDrain:
		return "wcdrain"
	default:
		return fmt.Sprintf("PersistEventKind(%d)", int(k))
	}
}

// PersistEvent describes one persist-relevant operation, delivered to
// the tap installed with SetPersistTap immediately after the operation
// takes effect.
type PersistEvent struct {
	Kind PersistEventKind
	Addr memdev.Addr // the accessed word (line base for WC drains)
	Line uint64      // NVM line number
	TID  int
}

// SetPersistTap installs a callback observing every persist-relevant
// NVM event, or removes it with nil. The tap is how the crash checker
// discovers and counts persist boundaries, and how it cuts execution
// at one (by panicking with core.PowerFailure from inside the tap).
// Install or clear only while no simulated threads are running; the
// tap runs on the simulated thread's goroutine.
func (b *Bus) SetPersistTap(fn func(PersistEvent)) { b.tap = fn }

// New assembles the memory system.
func New(cfg Config) (*Bus, error) {
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("membus: Threads must be positive, got %d", cfg.Threads)
	}
	if !cfg.Domain.Valid() {
		return nil, fmt.Errorf("membus: invalid durability domain %d", int(cfg.Domain))
	}
	// Lockstep serializes every simulated thread, so the whole memory
	// stack can elide its internal synchronization (see the package
	// docs of memdev, wpq, cachesim, and pagecache).
	cfg.Dev.Lockstep = cfg.Lockstep
	dev, err := memdev.New(cfg.Dev)
	if err != nil {
		return nil, err
	}
	if cfg.Ctl.Depth == 0 {
		cfg.Ctl = wpq.DefaultConfig(cfg.Threads)
	}
	cfg.Ctl.Threads = cfg.Threads
	cfg.Ctl.Lockstep = cfg.Lockstep
	if cfg.L3Lines == 0 {
		cfg.L3Lines = 16 * 1024
	}
	if cfg.PageFrames == 0 {
		cfg.PageFrames = 1024
	}
	if (cfg.Lat == Latency{}) {
		cfg.Lat = DefaultLatency()
	}
	ccfg := cachesim.DefaultConfig(cfg.Threads, cfg.L3Lines)
	ccfg.Lockstep = cfg.Lockstep
	b := &Bus{
		cfg:         cfg,
		lat:         cfg.Lat,
		dev:         dev,
		cache:       cachesim.New(ccfg),
		ctl:         wpq.New(cfg.Ctl),
		engine:      newEngine(cfg),
		domain:      cfg.Domain,
		rec:         cfg.Recorder,
		lockstep:    cfg.Lockstep,
		flushElided: !cfg.Domain.RequiresFlush(),
		fenceElided: !cfg.Domain.RequiresFence(),
	}
	switch {
	case cfg.Domain == durability.PDRAM:
		b.routeMode = routeAll
	case cfg.Domain == durability.PDRAMLite:
		b.routeMode = routeTable
	}
	if cfg.Metrics != nil {
		b.ctl.SetMetrics(cfg.Metrics)
	}
	if cfg.Domain.DRAMCachesNVM() || cfg.Domain == durability.PDRAMLite {
		b.pcache = pagecache.New(pagecache.Config{
			Frames:           cfg.PageFrames,
			NoPrefetch:       cfg.NoPrefetch,
			NoAsyncWriteback: cfg.NoAsyncWriteback,
			Lockstep:         cfg.Lockstep,
		}, b.ctl)
	}
	return b, nil
}

// newEngine picks the virtual-time scheduler the config asks for.
func newEngine(cfg Config) *simtime.Engine {
	if cfg.Lockstep {
		return simtime.NewLockstepEngine(cfg.WindowNS)
	}
	return simtime.NewEngine(cfg.WindowNS)
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Bus {
	b, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Device exposes the underlying device (for recovery and tests).
func (b *Bus) Device() *memdev.Device { return b.dev }

// Controller exposes the memory controller (for stats).
func (b *Bus) Controller() *wpq.Controller { return b.ctl }

// PageCache exposes the Memory-Mode page cache, or nil if the domain
// does not use one.
func (b *Bus) PageCache() *pagecache.Cache { return b.pcache }

// Cache exposes the CPU cache hierarchy (for stats).
func (b *Bus) Cache() *cachesim.Hierarchy { return b.cache }

// Domain reports the configured durability domain.
func (b *Bus) Domain() durability.Domain { return b.domain }

// Engine exposes the virtual-time engine.
func (b *Bus) Engine() *simtime.Engine { return b.engine }

// RoutePages declares that the page range containing words
// [addr, addr+words) routes through the DRAM page cache. Used under
// PDRAM-Lite to place transaction logs in persistent DRAM. No-op for
// other domains (PDRAM routes every NVM page implicitly).
//
// The registered set is kept sorted and disjoint: a new range is
// spliced in at its binary-search position and merged with any
// overlapping or adjacent neighbours, so RoutedPageCount never double
// counts and routedNVM's binary search stays sound no matter how
// callers overlap their registrations.
func (b *Bus) RoutePages(addr memdev.Addr, words uint64) {
	if b.routeMode != routeTable || words == 0 {
		return
	}
	lo := pagecache.PageOf(uint64(addr))
	hi := pagecache.PageOf(uint64(addr)+words-1) + 1
	if !b.lockstep {
		b.routeMu.Lock()
		defer b.routeMu.Unlock()
	}
	// First range that could touch or follow [lo, hi): predecessor
	// ranges with r.hi >= lo are mergeable (adjacency counts).
	i := sort.Search(len(b.routed), func(i int) bool { return b.routed[i].hi >= lo })
	// Swallow every range the new one overlaps or abuts.
	j := i
	for j < len(b.routed) && b.routed[j].lo <= hi {
		if b.routed[j].lo < lo {
			lo = b.routed[j].lo
		}
		if b.routed[j].hi > hi {
			hi = b.routed[j].hi
		}
		j++
	}
	if i == j {
		// Disjoint: splice in at the search position.
		b.routed = append(b.routed, pageRange{})
		copy(b.routed[i+1:], b.routed[i:])
		b.routed[i] = pageRange{lo, hi}
		return
	}
	b.routed[i] = pageRange{lo, hi}
	b.routed = append(b.routed[:i+1], b.routed[j:]...)
}

// RoutedPageCount reports how many NVM pages are registered to route
// through the page cache (PDRAM-Lite's bounded directory; 0 for other
// domains, whose routing is implicit).
func (b *Bus) RoutedPageCount() int {
	if !b.lockstep {
		b.routeMu.RLock()
		defer b.routeMu.RUnlock()
	}
	n := uint64(0)
	for _, r := range b.routed {
		n += r.hi - r.lo
	}
	return int(n)
}

// routedNVM reports whether NVM word address a goes through the page
// cache under the current domain. The common domains (ADR, eADR,
// NoReserve) resolve to a single flag comparison; only PDRAM-Lite
// consults the registered ranges, and only concurrent-mode buses take
// the read lock to do so.
func (b *Bus) routedNVM(a memdev.Addr) bool {
	switch b.routeMode {
	case routeNone:
		return false
	case routeAll:
		return true
	}
	p := pagecache.PageOf(uint64(a))
	if !b.lockstep {
		b.routeMu.RLock()
		defer b.routeMu.RUnlock()
	}
	i := sort.Search(len(b.routed), func(i int) bool { return b.routed[i].hi > p })
	return i < len(b.routed) && b.routed[i].lo <= p
}

// Crash simulates a power failure at the maximum virtual time observed
// so far and applies the domain's persistence policy. The page cache,
// being DRAM, is dropped — but under the PDRAM domains its dirty pages
// are durable by construction (the domain's CachePersists handles the
// volatile image, since the simulated store is write-through; see the
// pagecache package doc).
func (b *Bus) Crash(vt int64) {
	b.CrashWith(vt, nil)
}

// CrashWith is Crash with an adversarial fault plan applied to the
// device policy (see memdev.CrashWith). The WPQ controller's in-flight
// ring is reset afterward: queued drain deadlines are hardware state
// that does not survive the failure.
func (b *Bus) CrashWith(vt int64, faults []memdev.LineFault) {
	if b.pcache != nil {
		b.pcache.Drop()
	}
	b.dev.CrashWith(vt, b.domain, faults)
	b.ctl.Reset()
}

// Quiesce cleanly drains all pending persistence traffic (orderly
// shutdown).
func (b *Bus) Quiesce() { b.dev.DrainAll() }
