package memdev

import (
	"fmt"
	"sort"
	"sync/atomic"

	"goptm/internal/durability"
)

// This file is the crash checker's fault-injection surface: an
// adversarial refinement of Crash. The baseline Crash applies the
// durability domain's policy deterministically; real hardware is
// nondeterministic inside the window that policy leaves open —
//
//   - a dirty cache line may have been evicted into the WPQ at any
//     moment before the failure (so it survives an ADR crash even
//     though the program never flushed it);
//   - a flush that was issued but never ordered by an sfence may still
//     be sitting in the core when the power fails (so it is lost even
//     though the model's WPQ accepted it);
//   - an in-flight media write is atomic only at 8-byte granularity,
//     so a 64 B line can land torn: any subset of its words new, the
//     rest old (Marathe et al., "Persistent Memory Transactions").
//
// CrashWith lets the checker pick any point in that window; the
// PendingSnapshot/DirtyLineList introspection tells it which lines are
// up for grabs, and Snapshot/Restore let it replay many fault variants
// of one crash instant without re-running the simulation.

// FaultKind selects how a fault-eligible line resolves at crash time.
type FaultKind uint8

// The fault kinds. Apply forces the line's in-flight payload onto
// media even where the baseline policy would lose it (early eviction,
// a racing drain); Drop loses it even where the baseline would keep it
// (flush still in the core, line still in the cache); Tear lands a
// word-granular mix of old and new.
const (
	FaultApply FaultKind = iota
	FaultDrop
	FaultTear
)

// String names the kind for reports and repro files.
func (k FaultKind) String() string {
	switch k {
	case FaultApply:
		return "apply"
	case FaultDrop:
		return "drop"
	case FaultTear:
		return "tear"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// LineFault overrides the crash policy for one NVM line.
type LineFault struct {
	Line uint64    `json:"line"`
	Kind FaultKind `json:"kind"`
	// Mask is consulted by FaultTear only: bit w set means word w of
	// the line takes its new (in-flight) value, clear means it keeps
	// the old media value.
	Mask uint8 `json:"mask,omitempty"`
}

// PendingInfo describes one WPQ entry for fault enumeration.
type PendingInfo struct {
	Line    uint64
	DrainVT int64 // when the media write completes
	Ordered bool  // an sfence has guaranteed the entry (see pendingWrite)
}

// PendingSnapshot lists the WPQ entries, sorted by line so enumeration
// is deterministic.
func (d *Device) PendingSnapshot() []PendingInfo {
	d.mu.Lock()
	out := make([]PendingInfo, 0, d.pendingLive)
	for i := range d.pendingEnt {
		if !d.pendingLiveAt(i) {
			continue
		}
		p := &d.pendingEnt[i]
		out = append(out, PendingInfo{Line: p.line, DrainVT: p.drainVT, Ordered: p.ordered})
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}

// DirtyLineList lists the NVM lines in the DirtyCache state, in line
// order.
func (d *Device) DirtyLineList() []uint64 {
	var out []uint64
	for ln := range d.lineState {
		if atomic.LoadUint32(&d.lineState[ln]) == LineDirtyCache {
			out = append(out, uint64(ln))
		}
	}
	return out
}

// Image is a deep copy of a Device's full state, taken by Snapshot and
// reinstated by Restore. It lets a crash checker return to the exact
// pre-crash instant and apply a different fault plan without re-running
// the simulation.
type Image struct {
	nvmVol    []uint64
	nvmMedia  []uint64
	dramVol   []uint64
	lineState []uint32
	pending   []pendingWrite // live entries only
	stores    int64
	flushes   int64
}

// Snapshot captures the device state. The device must be quiescent
// (no concurrent accessors), which is the case at a simulated crash.
func (d *Device) Snapshot() *Image {
	d.mu.Lock()
	defer d.mu.Unlock()
	img := &Image{
		nvmVol:    append([]uint64(nil), d.nvmVol...),
		nvmMedia:  append([]uint64(nil), d.nvmMedia...),
		dramVol:   append([]uint64(nil), d.dramVol...),
		lineState: append([]uint32(nil), d.lineState...),
		pending:   make([]pendingWrite, 0, d.pendingLive),
		stores:    d.stores,
		flushes:   d.flushes,
	}
	for i := range d.pendingEnt {
		if d.pendingLiveAt(i) {
			img.pending = append(img.pending, d.pendingEnt[i])
		}
	}
	return img
}

// Restore reinstates a previously captured Image. Like Snapshot it
// requires a quiescent device.
func (d *Device) Restore(img *Image) {
	d.mu.Lock()
	defer d.mu.Unlock()
	copy(d.nvmVol, img.nvmVol)
	copy(d.nvmMedia, img.nvmMedia)
	copy(d.dramVol, img.dramVol)
	copy(d.lineState, img.lineState)
	d.pendingClear()
	for i := range img.pending {
		e, _ := d.pendingPut(img.pending[i].line)
		*e = img.pending[i]
	}
	d.stores = img.stores
	d.flushes = img.flushes
}

// CrashWith is Crash with an adversarial fault plan layered on top of
// the domain's baseline policy. A faulted line resolves by its
// LineFault instead of the policy; the in-flight payload is the line's
// volatile (dirty-cache) image if the line was stored to after its last
// flush, else its pending WPQ snapshot. CrashWith(vt, dom, nil) is
// exactly Crash(vt, dom).
func (d *Device) CrashWith(vt int64, dom durability.Domain, faults []LineFault) {
	byLine := make(map[uint64]LineFault, len(faults))
	for _, f := range faults {
		byLine[f.Line] = f
	}

	d.mu.Lock()
	// Ordered entries first: the fence that ordered them guaranteed
	// their drain, so they reach media before any fault resolves. A
	// drop or tear of a newer in-flight image of the same line (a dirty
	// overlay from a later store) then falls back to the fenced image,
	// never behind it.
	if dom.WPQPersists() {
		for i := range d.pendingEnt {
			if d.pendingLiveAt(i) && d.pendingEnt[i].ordered {
				d.writeMediaLocked(d.pendingEnt[i].line, d.pendingEnt[i].payload)
			}
		}
	}
	for i := range d.pendingEnt {
		if !d.pendingLiveAt(i) {
			continue
		}
		p := &d.pendingEnt[i]
		ln := p.line
		if f, ok := byLine[ln]; ok {
			// A line that was stored to after its last flush resolves
			// against the newer volatile image in the dirty pass below.
			if atomic.LoadUint32(&d.lineState[ln]) != LineDirtyCache {
				d.resolveLocked(ln, p.payload, f)
			}
			continue
		}
		if dom.WPQPersists() || p.drainVT <= vt {
			d.writeMediaLocked(ln, p.payload)
		}
	}
	d.pendingClear()

	// Only lines written since the last crash can differ from media: a
	// Clean line's volatile image already equals it. Skipping them keeps
	// a crash from touching (and so paging in) the untouched device.
	for ln := range d.lineState {
		state := atomic.LoadUint32(&d.lineState[ln])
		if state == LineClean {
			continue
		}
		base := uint64(ln) << LineShift
		if state == LineDirtyCache {
			var vol [WordsPerLine]uint64
			for w := uint64(0); w < WordsPerLine; w++ {
				vol[w] = atomic.LoadUint64(&d.nvmVol[base+w])
			}
			if f, ok := byLine[uint64(ln)]; ok {
				d.resolveLocked(uint64(ln), vol, f)
			} else if dom.CachePersists() {
				d.writeMediaLocked(uint64(ln), vol)
			}
		}
		copy(d.nvmVol[base:base+WordsPerLine], d.nvmMedia[base:])
		atomic.StoreUint32(&d.lineState[ln], LineClean)
	}
	d.mu.Unlock()

	clear(d.dramVol)
}

// resolveLocked applies one LineFault given the line's in-flight
// payload. Caller holds d.mu.
func (d *Device) resolveLocked(ln uint64, payload [WordsPerLine]uint64, f LineFault) {
	switch f.Kind {
	case FaultApply:
		d.writeMediaLocked(ln, payload)
	case FaultDrop:
		// Nothing reaches media.
	case FaultTear:
		base := ln << LineShift
		for w := uint64(0); w < WordsPerLine; w++ {
			if f.Mask&(1<<w) != 0 {
				d.nvmMedia[base+w] = payload[w]
			}
		}
	}
}

// writeMediaLocked copies a full line payload onto media. Caller holds
// d.mu.
func (d *Device) writeMediaLocked(ln uint64, payload [WordsPerLine]uint64) {
	base := ln << LineShift
	for w := uint64(0); w < WordsPerLine; w++ {
		d.nvmMedia[base+w] = payload[w]
	}
}
