// Package wpq models the memory controller: the bounded Write Pending
// Queue (WPQ) in front of the NVM media, the media's read and write
// ports, and the DRAM channel.
//
// Two properties of real Optane DC systems drive the paper's results
// and are modeled explicitly:
//
//   - Asymmetric bandwidth knees: NVM write bandwidth saturates with ~4
//     concurrent writers while read bandwidth scales to ~17 threads
//     (Izraelevitz et al. [46]); the port counts encode exactly that.
//   - WPQ backpressure: the queue holds a bounded number of line
//     flushes. Once the media's write ports fall behind, new flushes
//     (clwb, evictions) stall until a slot drains, which is the
//     mechanism behind the scalability collapse in §III-B.
//
// Sequentially-addressed writes from one thread receive a
// write-combining discount: regular access patterns (such as a redo
// log append stream) run at close to DRAM speed on Optane, which is
// the paper's explanation (§IV-D) for PDRAM-Lite's muted gains.
package wpq

import (
	"sync"

	"goptm/internal/metrics"
	"goptm/internal/simtime"
)

// Cause says why a line flush reached the WPQ; accepts and stalls are
// attributed per cause so a report can distinguish protocol-issued
// flush pressure (clwb) from cache-induced pressure (evictions).
type Cause int

// The flush causes.
const (
	CauseCLWB     Cause = iota // explicit clwb issued by the runtime
	CauseEviction              // dirty L3 line evicted by the cache
	CauseWCDrain               // write-combining buffer drain
	NumCauses
)

var causeNames = [NumCauses]string{"clwb", "eviction", "wc-drain"}

// String names the cause.
func (c Cause) String() string {
	if c >= 0 && int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "cause?"
}

// Config parameterizes the controller. Holds are per 64 B line in
// virtual nanoseconds; latencies for loads are charged by membus on
// top of port occupancy.
type Config struct {
	Depth          int // WPQ entries
	NVMWritePorts  int // concurrent line writes the media sustains
	NVMReadPorts   int // concurrent line reads
	DRAMWritePorts int
	DRAMReadPorts  int
	NVMWriteHold   int64 // media write occupancy per line
	NVMReadHold    int64 // media read occupancy per line
	DRAMWriteHold  int64
	DRAMReadHold   int64
	StreamDiscount int64 // divisor applied to sequential-line NVM writes
	Threads        int   // number of hardware threads (for stream tracking)
	// Lockstep promises that the lockstep scheduler serializes every
	// caller (one simulated thread executes at any instant), letting the
	// controller and its port servers skip their internal locking on the
	// hottest simulator path. Leave false for concurrent-mode engines.
	Lockstep bool
}

// DefaultConfig returns the calibration used throughout the
// reproduction (see DESIGN.md §4 for the sources).
func DefaultConfig(threads int) Config {
	return Config{
		Depth:          64,
		NVMWritePorts:  4,
		NVMReadPorts:   17,
		DRAMWritePorts: 16,
		DRAMReadPorts:  32,
		NVMWriteHold:   170,
		NVMReadHold:    205, // port occupancy; total NVM load latency ~305 ns with the 100 ns base charged by membus
		DRAMWriteHold:  60,
		DRAMReadHold:   55, // total DRAM load latency ~101 ns
		StreamDiscount: 4,
		Threads:        threads,
	}
}

// noLine marks a thread with no write stream in progress; neither it
// nor noLine+1 is a line number any simulated device can contain.
const noLine = uint64(1) << 62

// Controller is the memory controller model. Safe for concurrent use
// unless built with Config.Lockstep, in which case the lockstep floor
// provides the serialization the elided locks would have.
type Controller struct {
	cfg       Config
	serial    bool
	nvmWrite  *simtime.Server
	nvmRead   *simtime.Server
	dramWrite *simtime.Server
	dramRead  *simtime.Server

	mu        sync.Mutex
	ring      []int64 // drain completion times of the last Depth accepts
	ringPos   int
	lastLine  []uint64 // per-thread last NVM line written, for combining
	accepts   int64
	stallTime int64 // cumulative accept delay due to a full WPQ

	stallEvents    int64
	acceptsByCause [NumCauses]int64
	stallByCause   [NumCauses]int64
	combinedHits   int64 // accepts that took the write-combining discount
	maxOccupancy   int   // requires a registry (see Counters)
	bulkReadLines  int64
	bulkWriteLines int64

	// met, when non-nil, receives the media-model feed (per-line write
	// traffic for the XPBuffer model).
	met *metrics.Registry
}

// New builds a controller. Threads in cfg must cover every tid passed
// to EnqueueNVM.
func New(cfg Config) *Controller {
	if cfg.Depth <= 0 {
		panic("wpq: depth must be positive")
	}
	if cfg.StreamDiscount <= 0 {
		cfg.StreamDiscount = 1
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	mk := simtime.NewServer
	if cfg.Lockstep {
		mk = simtime.NewSerialServer
	}
	c := &Controller{
		cfg:       cfg,
		serial:    cfg.Lockstep,
		nvmWrite:  mk(cfg.NVMWritePorts),
		nvmRead:   mk(cfg.NVMReadPorts),
		dramWrite: mk(cfg.DRAMWritePorts),
		dramRead:  mk(cfg.DRAMReadPorts),
		ring:      make([]int64, cfg.Depth),
		lastLine:  make([]uint64, cfg.Threads),
	}
	for i := range c.lastLine {
		c.lastLine[i] = noLine // no stream yet
	}
	return c
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// SetMetrics attaches a counter registry (nil to detach). With a
// registry attached the controller feeds every NVM line write into the
// registry's media model and tracks the queue's maximum occupancy. Install before traffic starts.
func (c *Controller) SetMetrics(m *metrics.Registry) {
	if !c.serial {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	c.met = m
}

// Reset clears the queue state after a simulated power failure: the
// ring of in-flight drain times and the per-thread write streams are
// hardware state that does not survive reboot. Port busy-time servers
// are left alone (they only accumulate utilization statistics, and
// virtual time itself keeps advancing across the crash).
func (c *Controller) Reset() {
	if !c.serial {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	for i := range c.ring {
		c.ring[i] = 0
	}
	c.ringPos = 0
	for i := range c.lastLine {
		c.lastLine[i] = noLine
	}
}

// EnqueueNVM accepts a line flush into the WPQ at virtual time now on
// behalf of thread tid, attributed to cause. It returns the accept
// time (when the flush has entered the ADR domain — what a clwb+sfence
// waits for) and the drain time (when the media write completes — what
// full durability under NoReserve waits for). If the WPQ is full,
// accept is delayed until the oldest in-flight drain completes.
func (c *Controller) EnqueueNVM(now int64, tid int, line uint64, cause Cause) (accept, drain int64) {
	if !c.serial {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	accept = now
	stall := int64(0)
	// The entry Depth-back must have drained before a new slot frees.
	if oldest := c.ring[c.ringPos]; oldest > accept {
		stall = oldest - accept
		c.stallTime += stall
		c.stallEvents++
		c.stallByCause[cause] += stall
		accept = oldest
	}
	hold := c.cfg.NVMWriteHold
	if tid < len(c.lastLine) && (c.lastLine[tid]+1 == line || c.lastLine[tid] == line) {
		// Write combining: sequential lines coalesce in the WPQ /
		// XPBuffer, and a re-flush of the line just written merges
		// with it (commit markers and log tails hit this constantly).
		hold /= c.cfg.StreamDiscount
		c.combinedHits++
	}
	if tid < len(c.lastLine) {
		c.lastLine[tid] = line
	}
	drain = c.nvmWrite.Acquire(accept, hold)
	c.ring[c.ringPos] = drain
	c.ringPos = (c.ringPos + 1) % len(c.ring)
	c.accepts++
	c.acceptsByCause[cause]++
	if c.met != nil {
		// The occupancy scan is O(Depth); it runs only with a registry
		// attached, so the default measurement path keeps its cost and
		// maxOccupancy stays 0 without one (see Counters).
		occ := 0
		for _, d := range c.ring {
			if d > accept {
				occ++
			}
		}
		if occ > c.maxOccupancy {
			c.maxOccupancy = occ
		}
		c.met.MediaWriteLine(line)
	}
	return accept, drain
}

// ReadNVM charges an NVM media read of the given line beginning at now
// and returns its completion time.
func (c *Controller) ReadNVM(now int64, line uint64) int64 {
	if c.met != nil {
		c.met.MediaReadLine(line)
	}
	return c.nvmRead.Acquire(now, c.cfg.NVMReadHold)
}

// WriteDRAM charges a DRAM line write beginning at now.
func (c *Controller) WriteDRAM(now int64) int64 {
	return c.dramWrite.Acquire(now, c.cfg.DRAMWriteHold)
}

// ReadDRAM charges a DRAM line read beginning at now.
func (c *Controller) ReadDRAM(now int64) int64 {
	return c.dramRead.Acquire(now, c.cfg.DRAMReadHold)
}

// ReadNVMBulk charges a sequential multi-line NVM read (a page fetch
// by the Memory-Mode directory). Sequential transfers run at combined
// speed: one port held for lines*hold/StreamDiscount.
func (c *Controller) ReadNVMBulk(now int64, lines int) int64 {
	if !c.serial {
		c.mu.Lock()
	}
	c.bulkReadLines += int64(lines)
	if !c.serial {
		c.mu.Unlock()
	}
	if c.met != nil {
		c.met.MediaBulkRead(lines)
	}
	hold := int64(lines) * c.cfg.NVMReadHold / c.cfg.StreamDiscount
	return c.nvmRead.Acquire(now, hold)
}

// WriteNVMBulk charges a sequential multi-line NVM write (a dirty page
// writeback). Bypasses the WPQ: page writebacks are issued by the
// memory controller itself, not by CPU flushes.
func (c *Controller) WriteNVMBulk(now int64, lines int) int64 {
	if !c.serial {
		c.mu.Lock()
	}
	c.bulkWriteLines += int64(lines)
	if !c.serial {
		c.mu.Unlock()
	}
	if c.met != nil {
		c.met.MediaBulkWrite(lines)
	}
	hold := int64(lines) * c.cfg.NVMWriteHold / c.cfg.StreamDiscount
	return c.nvmWrite.Acquire(now, hold)
}

// OccupancyAt reports how many WPQ entries are still undrained at
// virtual time vt — the state an ADR flush-on-failure must finish
// writing. Bounded by the queue depth by construction.
func (c *Controller) OccupancyAt(vt int64) int {
	if !c.serial {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	n := 0
	for _, drain := range c.ring {
		if drain > vt {
			n++
		}
	}
	return n
}

// Counters is the controller's cumulative accounting: accepts and
// queue-full stalls (total and attributed per flush cause),
// write-combining hits, bulk transfer volume, and the maximum
// post-accept occupancy observed. MaxOccupancy requires a metrics
// registry attached before traffic (the per-accept occupancy scan is
// elided otherwise) and reads 0 without one.
type Counters struct {
	Accepts        int64
	StallNS        int64
	StallEvents    int64
	MaxOccupancy   int
	CombinedHits   int64
	AcceptsByCause [NumCauses]int64
	StallNSByCause [NumCauses]int64
	BulkReadLines  int64
	BulkWriteLines int64
}

// Counters reports the controller's cumulative counters.
func (c *Controller) Counters() Counters {
	if !c.serial {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	return Counters{
		Accepts:        c.accepts,
		StallNS:        c.stallTime,
		StallEvents:    c.stallEvents,
		MaxOccupancy:   c.maxOccupancy,
		CombinedHits:   c.combinedHits,
		AcceptsByCause: c.acceptsByCause,
		StallNSByCause: c.stallByCause,
		BulkReadLines:  c.bulkReadLines,
		BulkWriteLines: c.bulkWriteLines,
	}
}

// Utilization reports total busy time of the NVM write ports, an
// indicator of media write-bandwidth saturation.
func (c *Controller) Utilization() (nvmWriteBusy, nvmReadBusy int64) {
	return c.nvmWrite.BusyTime(), c.nvmRead.BusyTime()
}
