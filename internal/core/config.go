// Package core implements the persistent transactional memory (PTM)
// runtime under study: the best-performing redo-based algorithm
// ("orec-lazy") and undo-based algorithm ("orec-eager") from the
// paper's PACT'19 runtime, instrumented for a configurable durability
// domain on the simulated memory system.
//
// The central objects are:
//
//	TM     — the runtime: orec table, global clock, persistent thread
//	         descriptors (commit markers + logs), and the persistent
//	         heap with its allocator.
//	Thread — one worker's handle; owns a membus context and reusable
//	         read/write-set buffers.
//	Tx     — the per-attempt transaction handle passed to Atomic
//	         bodies; provides Load, Store, Alloc, Free, Abort.
//
// Algorithms (§II of the paper):
//
//	OrecLazy  (redo logging)  — TL2-style: writes buffer in a redo log
//	    whose index lives in DRAM and whose data lives in the
//	    persistent medium (the paper's split-log tuning); commit-time
//	    lock acquisition; O(1) fences per transaction.
//	OrecEager (undo logging)  — encounter-time locking with in-place
//	    update; each write persists an undo record first, ordered by a
//	    fence: O(W) fences per transaction, the cost §III-B measures.
package core

import (
	"fmt"

	"goptm/internal/durability"
	"goptm/internal/memdev"
	"goptm/internal/metrics"
	"goptm/internal/obs"
	"goptm/internal/wpq"
)

// Algo selects the PTM algorithm.
type Algo int

// The two algorithms the paper evaluates, plus the HTM mode the
// paper's §V poses as future work (valid only under durability
// domains that persist the caches; see htm.go).
const (
	OrecLazy  Algo = iota // redo logging, commit-time locking
	OrecEager             // undo logging, encounter-time locking
	AlgoHTM               // TSX-style logless hardware transactions
)

// String names the algorithm as the paper's figures do ("R"/"U").
func (a Algo) String() string {
	switch a {
	case OrecLazy:
		return "redo"
	case OrecEager:
		return "undo"
	case AlgoHTM:
		return "htm"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// ParseAlgo is String's inverse for the three named algorithms; ok is
// false for any other spelling.
func ParseAlgo(name string) (a Algo, ok bool) {
	for _, a := range []Algo{OrecLazy, OrecEager, AlgoHTM} {
		if a.String() == name {
			return a, true
		}
	}
	return 0, false
}

// Medium selects where the persistent heap lives: NVM (AppDirect) or
// a DRAM ramdisk (the paper's non-persistent "DRAM" baseline curves).
type Medium int

// Media for the persistent heap.
const (
	MediumNVM Medium = iota
	MediumDRAM
)

// String names the medium as the paper's figures do.
func (m Medium) String() string {
	switch m {
	case MediumNVM:
		return "Optane"
	case MediumDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Medium(%d)", int(m))
	}
}

// Config assembles a TM.
type Config struct {
	Algo    Algo
	Medium  Medium
	Domain  durability.Domain
	Threads int

	// HeapWords sizes the persistent heap (allocator-managed).
	HeapWords uint64
	// ScratchDRAMWords sizes the DRAM region beyond what the TM itself
	// needs (logs under MediumDRAM, page-cache frames). 0 selects a
	// default.
	ScratchDRAMWords uint64

	// MaxLogEntries bounds each thread's redo/undo log. 0 selects 1024.
	MaxLogEntries int
	// OrecSize is the orec-table size (power of two). 0 selects the
	// package default (2^20).
	OrecSize int

	// L3Lines, PageFrames, WindowNS and Ctl pass through to membus.
	L3Lines    int
	PageFrames int
	WindowNS   int64
	Ctl        wpq.Config
	// Lockstep passes through to membus: deterministic virtual-time
	// scheduling, required for bit-reproducible measurements (every
	// harness machine sets it, so results are identical across runs and
	// whether cells run serially or in parallel).
	Lockstep bool

	// NoFence elides sfence while keeping clwb — the intentionally
	// incorrect variant behind Table III. Performance ablation only.
	NoFence bool
	// BatchedFlush defers redo-log clwbs to commit time instead of
	// issuing them incrementally per write (§III-B flush-timing
	// experiment). Meaningful for OrecLazy under ADR only.
	BatchedFlush bool
	// NoSplitLog disables the split-log tuning: write-set lookups are
	// charged as loads from the persistent log instead of a DRAM-
	// resident index probe.
	NoSplitLog bool
	// Backoff selects the contention-management policy applied after
	// an aborted attempt (see BackoffPolicy). The default randomized
	// exponential backoff approximates the reference runtime.
	Backoff BackoffPolicy
	// NTStoreLog writes redo-log entries with non-temporal stores
	// (movnt) instead of cached stores followed by clwb — the other
	// log-write strategy the reference runtime supports. Meaningful
	// for OrecLazy under ADR.
	NTStoreLog bool
	// MutateDropFence elides the single named fence site (e.g.
	// "lazy:F3", "eager:Fw" — see Thread.fence call sites) while
	// keeping every other fence. It exists solely for the crash
	// checker's mutation self-test: dropping one ordering fence must be
	// caught by the checker, proving the oracle has teeth. Never set it
	// outside tests.
	MutateDropFence string

	// Recorder attaches the observability layer: phase-breakdown
	// accounting and (when the recorder traces) Perfetto span/counter
	// events, threaded through every layer down to the memory system.
	// nil disables observability at zero cost.
	Recorder *obs.Recorder

	// Metrics attaches the hardware-counter registry (PMWatch-style
	// media/WPQ telemetry). It is shared with the memory system: the
	// WPQ controller feeds the media model and max-occupancy tracking,
	// the TM the transaction-outcome counters. When the recorder also
	// traces, the commit-stride sampler adds the registry's XPLine and
	// commit totals to the counter tracks. nil keeps the counter model
	// off the device hot path; the TM then builds a private registry
	// for its own outcome counters (Commits/Aborts never lose their
	// home).
	Metrics *metrics.Registry
}

// BackoffPolicy selects what a thread does after an aborted attempt.
type BackoffPolicy int

// Backoff policies.
const (
	// BackoffExponential is randomized exponential backoff (default).
	BackoffExponential BackoffPolicy = iota
	// BackoffNone retries immediately — maximal livelock exposure.
	BackoffNone
	// BackoffLinear waits a small fixed-slope random delay.
	BackoffLinear
)

// String names the policy.
func (b BackoffPolicy) String() string {
	switch b {
	case BackoffExponential:
		return "exponential"
	case BackoffNone:
		return "none"
	case BackoffLinear:
		return "linear"
	default:
		return fmt.Sprintf("BackoffPolicy(%d)", int(b))
	}
}

// Persistent layout constants (word offsets from the medium base).
const (
	tmMagic     = 0x50544D31 // "PTM1"
	offTMMagic  = 0
	offThreads  = 1
	offMaxLog   = 2
	offHeapSize = 3
	offDescs    = 8
)

// Descriptor layout: one marker line followed by the log entries.
//
//	word 0: packed commit marker — status (2 bits) | entry count
//	        (30 bits) | log checksum (32 bits); see packMarker
//	words 1..7: reserved (zero)
//	words 8..: entries, two words each (addr, value)
//
// Packing status, count, and checksum into ONE word is what makes the
// marker crash-atomic: an 8-byte store either lands whole or not at
// all (powerfail atomicity of the media), so recovery can never
// observe a status from one epoch with a count or checksum from
// another — the torn-marker hazard a two-word marker has under
// adversarial word-granularity tears. The checksum covers the 2*count
// entry words and lets recovery reject a marker whose log tail never
// became durable (a stale or prematurely-evicted marker), the
// validation PMDK's redo log performs with its own log checksum.
const (
	descStatusOff = 0 // the packed marker word (historic name kept for tests)
	descEntries   = 8
)

// Transaction status values stored in the marker's status field. Idle
// must be zero so a freshly formatted (all-zero) descriptor reads as
// idle.
const (
	statusIdle          = 0
	statusRedoCommitted = 1 // redo log complete; replay on recovery
	statusUndoActive    = 2 // undo log live; roll back on recovery
)

// Marker field widths.
const (
	markerCountBits = 30
	markerCountMax  = 1<<markerCountBits - 1
)

// packMarker builds the single-word commit marker. An idle marker is
// exactly zero.
func packMarker(status int, count int, hash uint32) uint64 {
	if status == statusIdle {
		return 0
	}
	return uint64(status)<<62 | uint64(count&markerCountMax)<<32 | uint64(hash)
}

// unpackMarker splits a marker word into its fields.
func unpackMarker(w uint64) (status int, count int, hash uint32) {
	return int(w >> 62), int(w >> 32 & markerCountMax), uint32(w)
}

// logHashSeed/mix32 implement the FNV-1a-style fold the marker
// checksum uses: cheap, order-sensitive, and good enough to reject a
// stale or torn log tail (this is an integrity check against lost
// persists, not an adversary-resistant MAC).
const logHashSeed uint32 = 2166136261

func mix32(h uint32, x uint64) uint32 {
	h ^= uint32(x)
	h *= 16777619
	h ^= uint32(x >> 32)
	h *= 16777619
	return h
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.MaxLogEntries == 0 {
		cfg.MaxLogEntries = 1024
	}
	if cfg.HeapWords == 0 {
		cfg.HeapWords = 1 << 20
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	return cfg
}

// descStride returns the per-thread descriptor size in words, line
// aligned.
func descStride(maxLog int) uint64 {
	words := uint64(descEntries + 2*maxLog)
	return (words + memdev.WordsPerLine - 1) &^ uint64(memdev.WordsPerLine-1)
}

// metaWords returns the size of the TM's persistent metadata
// (superblock plus descriptors), line aligned.
func metaWords(threads, maxLog int) uint64 {
	return uint64(offDescs) + uint64(threads)*descStride(maxLog)
}

// rootSlots is the number of persistent heap roots the TM reserves
// for applications.
const rootSlots = 16
