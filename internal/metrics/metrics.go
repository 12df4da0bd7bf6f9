// Package metrics is the PMWatch/ipmctl-analog counter subsystem of
// the simulated machine: a registry of device-event counters, a small
// media model that translates 64 B line traffic into 256 B XPLine
// media accesses through an XPBuffer LRU (the quantity behind read and
// write amplification on Optane DC). The registry keeps totals only:
// a traced run's counter tracks are sampled from it by core's
// commit-stride sampler, the one writer of every machine track.
//
// The registry follows the same nil-safe discipline as obs.Recorder:
// every method is safe on a nil receiver and returns immediately, so
// the runtime instruments unconditionally and measurement paths simply
// leave the registry detached. Counters are a fixed array of atomics
// and the XPBuffers are fixed arrays, so an attached registry adds a
// handful of integer operations per event and never allocates on the
// operation path.
//
// Counting is pure accounting: no registry call ever advances virtual
// time, which is what keeps sweep output byte-identical whether
// counters are attached or not (pinned by the harness golden test).
package metrics

import (
	"sync"
	"sync/atomic"
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
	// Serial promises that the lockstep scheduler serializes every
	// caller, letting the media model skip its locking.
	Serial bool
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
// *Registry is the disabled configuration; every method no-ops.
type Registry struct {
	counters [NumCounters]atomic.Int64

	serial bool
	mu     sync.Mutex
	wbuf   xpBuffer
	rbuf   xpBuffer
}

// New builds a registry.
func New(cfg Config) *Registry {
	return &Registry{serial: cfg.Serial}
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
