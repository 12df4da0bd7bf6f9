// Package memdev implements the simulated byte-addressable memory
// device: an NVM (Optane) region with separate volatile and media
// images, and a DRAM region with a volatile image only.
//
// The device is word-addressed (64-bit words, 8 words per 64 B cache
// line). The volatile image is what running programs observe; the
// media image is what survives a power failure. Each NVM line carries
// a persistence state:
//
//	Clean      — volatile and media agree (or line never written)
//	DirtyCache — stored to, but not yet flushed; lost under ADR
//	InWPQ      — flushed (clwb) or evicted into the write-pending
//	             queue; durable under ADR and stronger domains
//
// Flushing a line snapshots its volatile contents into a pending slot
// together with the virtual time at which the WPQ drain completes;
// Crash applies the domain's policy to pending and dirty lines to
// produce the post-failure media image.
//
// memdev carries no timing of its own; latency and bandwidth modeling
// live in the wpq and membus packages.
package memdev

import (
	"fmt"
	"sync"
	"sync/atomic"

	"goptm/internal/durability"
)

// Addr is a word address in the simulated physical address space.
// NVM occupies [0, NVMWords); DRAM occupies [DRAMBase, DRAMBase+DRAMWords).
type Addr uint64

// DRAMBase is the first word address of the DRAM region. The huge gap
// guarantees NVM and DRAM ranges can never be confused.
const DRAMBase Addr = 1 << 40

// WordsPerLine is the number of 64-bit words in a 64 B cache line.
const WordsPerLine = 8

// LineShift converts between word addresses and line numbers.
const LineShift = 3

// Line state values, stored per NVM cache line.
const (
	LineClean uint32 = iota
	LineDirtyCache
	LineInWPQ
)

// Config sizes a Device.
type Config struct {
	NVMWords  uint64 // words of NVM (Optane) memory
	DRAMWords uint64 // words of DRAM
	// Lockstep promises that the lockstep scheduler serializes every
	// access (one simulated thread executes at any instant), so the
	// per-word atomics and the pending-set mutex are elided on the
	// load/store/flush path. Leave false for concurrent-mode engines.
	Lockstep bool
}

// pendingWrite is a line snapshot accepted into the WPQ but possibly
// not yet drained to media.
type pendingWrite struct {
	payload [WordsPerLine]uint64
	drainVT int64  // virtual time at which the drain completes
	line    uint64 // owning NVM line (for iteration over the dense set)
	// ordered records that the issuing thread has executed an sfence
	// after the flush was accepted: on real hardware only then is the
	// line guaranteed to have left the core's store path and entered
	// the durability domain. Unordered entries are what the crash
	// checker's adversarial fault model is allowed to drop or tear.
	ordered bool
}

// Device is the simulated memory device. Word loads and stores are
// individually atomic; coordination above word granularity is the
// responsibility of the software running on the device (that is the
// whole point of the PTM under study).
type Device struct {
	nvmWords  uint64
	dramWords uint64
	serial    bool // lockstep: callers are externally serialized

	nvmVol   []uint64
	nvmMedia []uint64
	dramVol  []uint64

	lineState []uint32 // per NVM line, accessed atomically (concurrent mode)

	// The pending (WPQ) set is a flat per-line index into a dense
	// entry slice rather than a map: WPQAccept runs once per clwb,
	// putting map hashing at the top of sweep profiles. pendingIdx
	// holds slot+1 (0 = no pending entry) so the zero value of a fresh
	// device is already correct; freed slots are recycled through
	// pendingFree, and an entry is live iff pendingIdx[entry.line]
	// still points at it.
	mu          sync.Mutex
	pendingIdx  []int32        // per NVM line: slot+1 into pendingEnt, 0 = none
	pendingEnt  []pendingWrite // dense entries, including recycled dead slots
	pendingFree []int32        // dead slots available for reuse
	pendingLive int            // live entry count

	loads   int64 // NVM load count, for stats
	stores  int64 // NVM store count, for stats
	flushes int64 // WPQ accepts, for stats
}

// New creates a device. Both regions must be non-empty and multiples
// of the line size.
func New(cfg Config) (*Device, error) {
	if cfg.NVMWords == 0 || cfg.NVMWords%WordsPerLine != 0 {
		return nil, fmt.Errorf("memdev: NVMWords %d must be a positive multiple of %d", cfg.NVMWords, WordsPerLine)
	}
	if cfg.DRAMWords == 0 || cfg.DRAMWords%WordsPerLine != 0 {
		return nil, fmt.Errorf("memdev: DRAMWords %d must be a positive multiple of %d", cfg.DRAMWords, WordsPerLine)
	}
	return &Device{
		nvmWords:   cfg.NVMWords,
		dramWords:  cfg.DRAMWords,
		serial:     cfg.Lockstep,
		nvmVol:     make([]uint64, cfg.NVMWords),
		nvmMedia:   make([]uint64, cfg.NVMWords),
		dramVol:    make([]uint64, cfg.DRAMWords),
		lineState:  make([]uint32, cfg.NVMWords/WordsPerLine),
		pendingIdx: make([]int32, cfg.NVMWords/WordsPerLine),
	}, nil
}

// MustNew is New but panics on error, for tests and examples.
func MustNew(cfg Config) *Device {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// NVMWords reports the size of the NVM region in words.
func (d *Device) NVMWords() uint64 { return d.nvmWords }

// DRAMWords reports the size of the DRAM region in words.
func (d *Device) DRAMWords() uint64 { return d.dramWords }

// IsNVM reports whether a falls in the NVM region.
func (d *Device) IsNVM(a Addr) bool { return a < Addr(d.nvmWords) }

// IsDRAM reports whether a falls in the DRAM region.
func (d *Device) IsDRAM(a Addr) bool {
	return a >= DRAMBase && a < DRAMBase+Addr(d.dramWords)
}

// LineOf returns the NVM line number containing a. a must be NVM.
func LineOf(a Addr) uint64 { return uint64(a) >> LineShift }

// LineAddr returns the first word address of NVM line ln.
func LineAddr(ln uint64) Addr { return Addr(ln << LineShift) }

// checkAddr panics on out-of-range addresses: such an access is a bug
// in the software under test, not a recoverable condition.
func (d *Device) index(a Addr) (arr []uint64, i uint64) {
	switch {
	case a < Addr(d.nvmWords):
		return d.nvmVol, uint64(a)
	case a >= DRAMBase && a < DRAMBase+Addr(d.dramWords):
		return d.dramVol, uint64(a - DRAMBase)
	default:
		panic(fmt.Sprintf("memdev: address %#x out of range (nvm %d words, dram %d words)", uint64(a), d.nvmWords, d.dramWords))
	}
}

// pendingGet returns the live pending entry for line ln, or nil.
// Caller must hold d.mu in concurrent mode.
func (d *Device) pendingGet(ln uint64) *pendingWrite {
	if s := d.pendingIdx[ln]; s != 0 {
		return &d.pendingEnt[s-1]
	}
	return nil
}

// pendingPut returns the pending entry for ln, creating one (from the
// free list or by growing the dense slice) if none is live, and
// reports whether the entry already existed. Caller must hold d.mu in
// concurrent mode.
func (d *Device) pendingPut(ln uint64) (e *pendingWrite, existed bool) {
	if s := d.pendingIdx[ln]; s != 0 {
		return &d.pendingEnt[s-1], true
	}
	var slot int32
	if n := len(d.pendingFree); n > 0 {
		slot = d.pendingFree[n-1]
		d.pendingFree = d.pendingFree[:n-1]
	} else {
		d.pendingEnt = append(d.pendingEnt, pendingWrite{})
		slot = int32(len(d.pendingEnt) - 1)
	}
	d.pendingIdx[ln] = slot + 1
	d.pendingLive++
	e = &d.pendingEnt[slot]
	e.line = ln
	return e, false
}

// pendingDelete removes the pending entry for ln, if any. Caller must
// hold d.mu in concurrent mode.
func (d *Device) pendingDelete(ln uint64) {
	if s := d.pendingIdx[ln]; s != 0 {
		d.pendingIdx[ln] = 0
		d.pendingFree = append(d.pendingFree, s-1)
		d.pendingLive--
	}
}

// pendingLiveAt reports whether dense slot i holds a live entry (a
// recycled slot's stale line no longer points back at it).
func (d *Device) pendingLiveAt(i int) bool {
	return d.pendingIdx[d.pendingEnt[i].line] == int32(i+1)
}

// pendingClear empties the whole pending set. Caller must hold d.mu in
// concurrent mode.
func (d *Device) pendingClear() {
	for i := range d.pendingEnt {
		if d.pendingLiveAt(i) {
			d.pendingIdx[d.pendingEnt[i].line] = 0
		}
	}
	d.pendingEnt = d.pendingEnt[:0]
	d.pendingFree = d.pendingFree[:0]
	d.pendingLive = 0
}

// Load returns the current (volatile) value of the word at a. NVM
// loads are counted (the denominator of read amplification).
func (d *Device) Load(a Addr) uint64 {
	arr, i := d.index(a)
	if d.serial {
		if a < Addr(d.nvmWords) {
			d.loads++
		}
		return arr[i]
	}
	if a < Addr(d.nvmWords) {
		atomic.AddInt64(&d.loads, 1)
	}
	return atomic.LoadUint64(&arr[i])
}

// Store sets the volatile value of the word at a and, for NVM
// addresses, marks the containing line dirty.
func (d *Device) Store(a Addr, v uint64) {
	arr, i := d.index(a)
	if d.serial {
		arr[i] = v
		if a < Addr(d.nvmWords) {
			d.lineState[LineOf(a)] = LineDirtyCache
			d.stores++
		}
		return
	}
	atomic.StoreUint64(&arr[i], v)
	if a < Addr(d.nvmWords) {
		atomic.StoreUint32(&d.lineState[LineOf(a)], LineDirtyCache)
		atomic.AddInt64(&d.stores, 1)
	}
}

// LineState reports the persistence state of NVM line ln.
func (d *Device) LineState(ln uint64) uint32 {
	if d.serial {
		return d.lineState[ln]
	}
	return atomic.LoadUint32(&d.lineState[ln])
}

// WPQAccept snapshots the volatile contents of NVM line ln into the
// write-pending queue with the given drain completion time. It models
// both an explicit clwb and a dirty-line eviction reaching the memory
// controller. Accepting a clean line is a no-op snapshot (harmless,
// like a clwb of an unmodified line).
func (d *Device) WPQAccept(ln uint64, drainVT int64) {
	base := ln << LineShift
	if base >= d.nvmWords {
		panic(fmt.Sprintf("memdev: WPQAccept of line %d beyond NVM", ln))
	}
	if !d.serial {
		d.mu.Lock()
	}
	e, existed := d.pendingPut(ln)
	if existed && e.ordered {
		// The fence that ordered the old entry guaranteed its drain; a
		// later flush of the same line cannot revoke that. Commit it to
		// media now so adversarial outcomes for the superseding entry
		// (drop, tear) resolve against the fenced image rather than
		// resurrecting the pre-fence one.
		for w := uint64(0); w < WordsPerLine; w++ {
			d.nvmMedia[base+w] = e.payload[w]
		}
	}
	if d.serial {
		copy(e.payload[:], d.nvmVol[base:base+WordsPerLine])
	} else {
		for w := uint64(0); w < WordsPerLine; w++ {
			e.payload[w] = atomic.LoadUint64(&d.nvmVol[base+w])
		}
	}
	e.drainVT = drainVT
	e.ordered = false
	if d.serial {
		d.lineState[ln] = LineInWPQ
		d.flushes++
		return
	}
	d.mu.Unlock()
	atomic.StoreUint32(&d.lineState[ln], LineInWPQ)
	atomic.AddInt64(&d.flushes, 1)
}

// WPQMarkOrdered records that the issuing thread has fenced the given
// lines: their currently pending snapshots are guaranteed to have
// entered the durability domain. Lines with no pending entry (already
// drained, or superseded) are skipped.
func (d *Device) WPQMarkOrdered(lines []uint64) {
	if !d.serial {
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	for _, ln := range lines {
		if p := d.pendingGet(ln); p != nil {
			p.ordered = true
		}
	}
}

// PendingLines reports how many line flushes are sitting in the
// pending (WPQ) set.
func (d *Device) PendingLines() int {
	if !d.serial {
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	return d.pendingLive
}

// Counters is the device's cumulative event counts: word loads and
// stores addressed to NVM (the denominators of read and write
// amplification) and WPQ accepts (clwb or eviction snapshots).
type Counters struct {
	NVMLoads  int64
	NVMStores int64
	Flushes   int64
}

// Counters reports the device's cumulative counters.
func (d *Device) Counters() Counters {
	if d.serial {
		return Counters{NVMLoads: d.loads, NVMStores: d.stores, Flushes: d.flushes}
	}
	return Counters{
		NVMLoads:  atomic.LoadInt64(&d.loads),
		NVMStores: atomic.LoadInt64(&d.stores),
		Flushes:   atomic.LoadInt64(&d.flushes),
	}
}

// Crash applies a power failure at virtual time vt under the given
// durability domain, producing the post-failure media image:
//
//   - Pending WPQ entries are applied to media if the domain preserves
//     the WPQ, or if their drain had already completed by vt.
//   - Dirty cached lines are applied (volatile -> media) if the domain
//     flushes caches on failure.
//
// After Crash the volatile images are zeroed (DRAM contents and
// non-persisted NVM lines are gone; NVM volatile is re-seeded from
// media, as if the file were mapped again after reboot) and all line
// states are Clean. Higher layers (the page cache) must write back any
// DRAM-cached NVM pages *before* calling Crash when the domain
// requires it.
func (d *Device) Crash(vt int64, dom durability.Domain) {
	d.CrashWith(vt, dom, nil)
}

// WriteMedia installs src as the media and volatile contents of the
// NVM words [from, from+len(src)), bypassing the WPQ, under one hold
// of the pending-set lock. The range must be whole lines: each line it
// covers loses any pending flush (the write supersedes it) and is left
// Clean. Reopening a saved image installs its body this way.
func (d *Device) WriteMedia(from Addr, src []uint64) {
	n := uint64(len(src))
	if uint64(from)%WordsPerLine != 0 || n%WordsPerLine != 0 || uint64(from) > d.nvmWords || n > d.nvmWords-uint64(from) {
		panic(fmt.Sprintf("memdev: WriteMedia of %d words at %#x is not whole NVM lines", n, uint64(from)))
	}
	d.mu.Lock()
	copy(d.nvmMedia[from:], src)
	for i, v := range src {
		atomic.StoreUint64(&d.nvmVol[uint64(from)+uint64(i)], v)
	}
	for ln := LineOf(from); ln < LineOf(from)+n/WordsPerLine; ln++ {
		d.pendingDelete(ln)
		atomic.StoreUint32(&d.lineState[ln], LineClean)
	}
	d.mu.Unlock()
}

// MediaLoad reads the media image directly. Only meaningful after
// Crash (post-failure inspection) or for verification in tests.
func (d *Device) MediaLoad(a Addr) uint64 {
	if a >= Addr(d.nvmWords) {
		panic(fmt.Sprintf("memdev: MediaLoad of non-NVM address %#x", uint64(a)))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nvmMedia[a]
}

// ReadMedia copies the media words [from, from+len(dst)) into dst
// under one hold of the pending-set lock: MediaLoad for a whole range.
// Saving an image reads the media this way.
func (d *Device) ReadMedia(from Addr, dst []uint64) {
	if uint64(from) > d.nvmWords || uint64(len(dst)) > d.nvmWords-uint64(from) {
		panic(fmt.Sprintf("memdev: ReadMedia of %d words at %#x beyond NVM", len(dst), uint64(from)))
	}
	d.mu.Lock()
	copy(dst, d.nvmMedia[from:])
	d.mu.Unlock()
}

// DrainAll forces every pending WPQ entry onto media immediately, as
// an orderly shutdown would. It returns the number of entries applied
// and the maximum drain completion time among them; a caller modeling
// an honest wait should advance its virtual clock to that time.
func (d *Device) DrainAll() (applied int, maxDrainVT int64) {
	if !d.serial {
		d.mu.Lock()
		defer d.mu.Unlock()
	}
	for i := range d.pendingEnt {
		if !d.pendingLiveAt(i) {
			continue
		}
		p := &d.pendingEnt[i]
		d.pendingIdx[p.line] = 0
		copy(d.nvmMedia[p.line<<LineShift:], p.payload[:])
		maxDrainVT = max(maxDrainVT, p.drainVT)
	}
	applied = d.pendingLive
	d.pendingEnt = d.pendingEnt[:0]
	d.pendingFree = d.pendingFree[:0]
	d.pendingLive = 0
	return applied, maxDrainVT
}
