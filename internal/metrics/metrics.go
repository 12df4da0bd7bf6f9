// Package metrics is the PMWatch/ipmctl-analog counter subsystem of
// the simulated machine: a registry of device-event counters, a small
// media model that translates 64 B line traffic into 256 B XPLine
// media accesses through an XPBuffer LRU (the quantity behind read and
// write amplification on Optane DC), and a fixed-interval virtual-time
// sampler that turns a run into a plottable time series.
//
// The registry follows the same nil-safe discipline as obs.Recorder:
// every method is safe on a nil receiver and returns immediately, so
// the runtime instruments unconditionally and measurement paths simply
// leave the registry detached. Counters are a fixed array of atomics
// and the XPBuffers are fixed arrays, so an attached registry adds a
// handful of integer operations per event and never allocates on the
// operation path (the time series appends only on its sampling ticks,
// which fire on the commit path).
//
// Counting is pure accounting: no registry call ever advances virtual
// time, which is what keeps sweep output byte-identical whether
// counters are attached or not (pinned by the harness golden test).
package metrics

import (
	"sync"
	"sync/atomic"

	"goptm/internal/obs"
)

// Counter identifies one registry counter. The registry owns the
// counters that cut across components (transaction outcomes, log
// volume) and the media model's outputs; per-component counters
// (WPQ causes, cache evictions, orec CAS failures) live with their
// components and are assembled into a Snapshot by the machine.
type Counter int

// The registry counter namespace.
const (
	// Transaction outcomes (the single home of the PR-1 abort-reason
	// counters; core.AbortReason indexes the four abort counters as
	// CtrAbortLockConflict + Counter(reason)).
	CtrCommits Counter = iota
	CtrAborts
	CtrAbortLockConflict
	CtrAbortValidation
	CtrAbortCapacity
	CtrAbortExplicit
	CtrReadOnlyTxns

	// Log volume, accumulated at commit/rollback time: entries are the
	// write/undo-set records a transaction logged, bytes their durable
	// footprint (2 words per entry).
	CtrLogEntries
	CtrLogBytes

	// Media model outputs (fed by the memory controller): XPLines are
	// 256 B media accesses; XPBuffer hits are line accesses coalesced
	// into an already-open XPLine. Bulk lines are sequential page
	// transfers (Memory-Mode fills and writebacks) charged at
	// lines/4 XPLines without disturbing the XPBuffer.
	CtrMediaWriteXPLines
	CtrMediaReadXPLines
	CtrXPBufWriteHits
	CtrXPBufReadHits
	CtrMediaBulkWriteLines
	CtrMediaBulkReadLines

	// WPQ pressure as seen by the series sampler (the controller keeps
	// its own authoritative per-cause accounting; these mirror the
	// totals so Tick can snapshot them without reaching into the
	// controller).
	CtrWPQAccepts
	CtrWPQStallNS
	CtrWPQStallEvents

	// Serving layer (internal/server): requests completed, requests
	// shed by backpressure or deadline, transactions used as coalesced
	// commit batches, and the total operations those batches carried
	// (batched ops / batches = the achieved coalescing factor).
	CtrSrvRequests
	CtrSrvShed
	CtrSrvBatches
	CtrSrvBatchedOps

	NumCounters
)

// counterNames are stable identifiers for debugging output.
var counterNames = [NumCounters]string{
	"commits", "aborts",
	"abort_lock_conflict", "abort_validation", "abort_capacity", "abort_explicit",
	"read_only_txns",
	"log_entries", "log_bytes",
	"media_write_xplines", "media_read_xplines",
	"xpbuf_write_hits", "xpbuf_read_hits",
	"media_bulk_write_lines", "media_bulk_read_lines",
	"wpq_accepts", "wpq_stall_ns", "wpq_stall_events",
	"srv_requests", "srv_shed", "srv_batches", "srv_batched_ops",
}

// String names the counter.
func (c Counter) String() string {
	if c >= 0 && int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "counter?"
}

// XPLine geometry: the media's 256 B access granularity is 4 cache
// lines, and the XPBuffer holds 16 open XPLines (Izraelevitz et al.'s
// characterization of the on-DIMM write-combining buffer).
const (
	XPLineBytes  = 256
	LinesPerXP   = 4
	XPBufferWays = 16
	LineBytes    = 64
	WordBytes    = 8
	xpShift      = 2 // line number -> XPLine number
)

// Config parameterizes a Registry.
type Config struct {
	// SampleIntervalNS is the virtual-time distance between time-series
	// samples; 0 disables the series (counters still accumulate).
	SampleIntervalNS int64
	// Serial promises that the lockstep scheduler serializes every
	// caller, letting the media model and sampler skip their locking.
	Serial bool
}

// Sample is one fixed-interval snapshot of the cumulative counters at
// virtual time VT. Consecutive samples differenced give rates (e.g.
// commit throughput, media write bandwidth) over the run.
type Sample struct {
	VT           int64 `json:"vt_ns"`
	Commits      int64 `json:"commits"`
	Aborts       int64 `json:"aborts"`
	MediaWriteXP int64 `json:"media_write_xplines"`
	MediaReadXP  int64 `json:"media_read_xplines"`
	WPQOccupancy int64 `json:"wpq_occupancy"`
	WPQStallNS   int64 `json:"wpq_stall_ns"`
}

// xpBuffer is a tiny LRU of open XPLine numbers, move-to-front in a
// fixed array (no allocation, ~16 word compares per probe worst case).
type xpBuffer struct {
	ents [XPBufferWays]uint64
	n    int
}

// probe reports whether XPLine xp is open, opening it (and evicting
// the least-recently-used entry if full) when it was not.
func (b *xpBuffer) probe(xp uint64) bool {
	for i := 0; i < b.n; i++ {
		if b.ents[i] == xp {
			copy(b.ents[1:i+1], b.ents[:i])
			b.ents[0] = xp
			return true
		}
	}
	if b.n < XPBufferWays {
		b.n++
	}
	copy(b.ents[1:b.n], b.ents[:b.n-1])
	b.ents[0] = xp
	return false
}

// Registry is the counter registry of one simulated machine. A nil
// *Registry is the disabled configuration; every method no-ops. The
// zero Config (New(Config{})) yields a registry that counts but never
// samples — the always-on configuration core.TM uses for its own
// outcome counters.
type Registry struct {
	counters [NumCounters]atomic.Int64

	serial         bool
	sampleInterval int64
	nextSample     atomic.Int64

	mu      sync.Mutex
	wbuf    xpBuffer
	rbuf    xpBuffer
	wpqOcc  int64 // gauge: occupancy observed at the last WPQ accept
	samples []Sample
}

// New builds a registry.
func New(cfg Config) *Registry {
	m := &Registry{serial: cfg.Serial, sampleInterval: cfg.SampleIntervalNS}
	if cfg.SampleIntervalNS > 0 {
		m.nextSample.Store(cfg.SampleIntervalNS)
	}
	return m
}

// Add adds delta to counter c.
func (m *Registry) Add(c Counter, delta int64) {
	if m == nil {
		return
	}
	m.counters[c].Add(delta)
}

// Get reads counter c.
func (m *Registry) Get(c Counter) int64 {
	if m == nil {
		return 0
	}
	return m.counters[c].Load()
}

// ResetTxnCounters zeroes the transaction-outcome and log-volume
// counters (CtrCommits through CtrLogBytes) — the warmup-exclusion
// reset. Device and media counters are left cumulative, matching the
// component counters (WPQ, caches) they are reported alongside.
func (m *Registry) ResetTxnCounters() {
	if m == nil {
		return
	}
	for c := CtrCommits; c <= CtrLogBytes; c++ {
		m.counters[c].Store(0)
	}
}

// MediaWriteLine records one 64 B line flush reaching the controller:
// a hit in the write XPBuffer coalesces into an open XPLine, a miss
// opens the XPLine and costs one 256 B media write.
func (m *Registry) MediaWriteLine(line uint64) {
	if m == nil {
		return
	}
	if !m.serial {
		m.mu.Lock()
	}
	hit := m.wbuf.probe(line >> xpShift)
	if !m.serial {
		m.mu.Unlock()
	}
	if hit {
		m.counters[CtrXPBufWriteHits].Add(1)
	} else {
		m.counters[CtrMediaWriteXPLines].Add(1)
	}
}

// MediaReadLine records one 64 B line read reaching the media (a
// cache-hierarchy miss routed to NVM).
func (m *Registry) MediaReadLine(line uint64) {
	if m == nil {
		return
	}
	if !m.serial {
		m.mu.Lock()
	}
	hit := m.rbuf.probe(line >> xpShift)
	if !m.serial {
		m.mu.Unlock()
	}
	if hit {
		m.counters[CtrXPBufReadHits].Add(1)
	} else {
		m.counters[CtrMediaReadXPLines].Add(1)
	}
}

// MediaBulkWrite records a sequential lines-long media write (a page
// writeback issued by the controller). Sequential transfers touch
// each XPLine exactly once and bypass the XPBuffer.
func (m *Registry) MediaBulkWrite(lines int) {
	if m == nil {
		return
	}
	m.counters[CtrMediaBulkWriteLines].Add(int64(lines))
	m.counters[CtrMediaWriteXPLines].Add(int64((lines + LinesPerXP - 1) / LinesPerXP))
}

// MediaBulkRead records a sequential lines-long media read (a page
// fill).
func (m *Registry) MediaBulkRead(lines int) {
	if m == nil {
		return
	}
	m.counters[CtrMediaBulkReadLines].Add(int64(lines))
	m.counters[CtrMediaReadXPLines].Add(int64((lines + LinesPerXP - 1) / LinesPerXP))
}

// WPQAccept mirrors one WPQ accept into the registry: the queue-full
// stall it suffered and the post-accept occupancy (the series gauge).
func (m *Registry) WPQAccept(stallNS int64, occupancy int) {
	if m == nil {
		return
	}
	m.counters[CtrWPQAccepts].Add(1)
	if stallNS > 0 {
		m.counters[CtrWPQStallNS].Add(stallNS)
		m.counters[CtrWPQStallEvents].Add(1)
	}
	if !m.serial {
		m.mu.Lock()
	}
	m.wpqOcc = int64(occupancy)
	if !m.serial {
		m.mu.Unlock()
	}
}

// Tick advances the time-series sampler to virtual time nowVT,
// appending one sample per elapsed interval boundary. The runtime
// calls it from the commit path; with no series configured the cost is
// two loads.
func (m *Registry) Tick(nowVT int64) {
	if m == nil || m.sampleInterval <= 0 {
		return
	}
	if nowVT < m.nextSample.Load() {
		return
	}
	if !m.serial {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	next := m.nextSample.Load()
	for nowVT >= next {
		m.samples = append(m.samples, Sample{
			VT:           next,
			Commits:      m.counters[CtrCommits].Load(),
			Aborts:       m.counters[CtrAborts].Load(),
			MediaWriteXP: m.counters[CtrMediaWriteXPLines].Load(),
			MediaReadXP:  m.counters[CtrMediaReadXPLines].Load(),
			WPQOccupancy: m.wpqOcc,
			WPQStallNS:   m.counters[CtrWPQStallNS].Load(),
		})
		next += m.sampleInterval
	}
	m.nextSample.Store(next)
}

// Samples returns a copy of the time series recorded so far.
func (m *Registry) Samples() []Sample {
	if m == nil {
		return nil
	}
	if !m.serial {
		m.mu.Lock()
		defer m.mu.Unlock()
	}
	out := make([]Sample, len(m.samples))
	copy(out, m.samples)
	return out
}

// ExportTracks replays the time series onto the recorder's counter
// tracks so the Perfetto trace carries the sampled WPQ occupancy,
// media write/read XPLine totals, and commit count alongside the span
// lanes. No-op unless the recorder retains trace events.
func (m *Registry) ExportTracks(rec *obs.Recorder) {
	if m == nil || !rec.Tracing() {
		return
	}
	for _, s := range m.Samples() {
		rec.CountShared(obs.TrackWPQOccupancy, s.VT, float64(s.WPQOccupancy))
		rec.CountShared(obs.TrackMediaWriteXP, s.VT, float64(s.MediaWriteXP))
		rec.CountShared(obs.TrackMediaReadXP, s.VT, float64(s.MediaReadXP))
		rec.CountShared(obs.TrackCommits, s.VT, float64(s.Commits))
	}
}
