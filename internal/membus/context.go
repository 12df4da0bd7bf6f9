package membus

import (
	"goptm/internal/cachesim"
	"goptm/internal/memdev"
	"goptm/internal/obs"
	"goptm/internal/pagecache"
	"goptm/internal/simtime"
	"goptm/internal/wpq"
)

// Stats counts the memory operations a context has performed.
type Stats struct {
	Loads   int64
	Stores  int64
	Flushes int64 // clwb actually issued (0 when the domain elides them)
	Fences  int64 // sfence actually issued
}

// Context is one simulated hardware thread's view of the memory
// system. All methods must be called from the goroutine that owns the
// context.
type Context struct {
	bus *Bus
	th  *simtime.Thread
	tid int

	pendingFence int64 // latest clwb accept time since the last fence
	wcLine       int64 // NT write-combining buffer: current line, -1 if empty
	// unfenced lists NVM lines flushed since the last sfence: their WPQ
	// entries are not yet ordered (see memdev.WPQMarkOrdered) and are
	// fair game for the crash checker's adversarial drops.
	unfenced []uint64
	stats    Stats
	rec      *obs.ThreadRecorder // nil when observability is off
}

// NewContext attaches a thread context. tid must be unique and in
// [0, cfg.Threads).
func (b *Bus) NewContext(tid int) *Context {
	if tid < 0 || tid >= b.cfg.Threads {
		panic("membus: tid out of range")
	}
	return &Context{bus: b, th: b.engine.NewThread(tid), tid: tid, wcLine: -1, rec: b.rec.Thread(tid)}
}

// Now reports the context's virtual time.
func (c *Context) Now() int64 { return c.th.Now() }

// TID reports the context's thread id.
func (c *Context) TID() int { return c.tid }

// Bus returns the owning bus.
func (c *Context) Bus() *Bus { return c.bus }

// Stats returns the operation counters so far.
func (c *Context) Stats() Stats { return c.stats }

// Detach releases the context from the virtual-time barrier. Must be
// called when the owning goroutine finishes.
func (c *Context) Detach() { c.th.Detach() }

// Park takes the context out of the virtual-time barrier until Resume,
// which rejoins it at the machine's present (simtime.Thread.Park).
func (c *Context) Park() { c.th.Park() }

// Resume undoes Park.
func (c *Context) Resume() { c.th.Resume() }

// Compute advances the thread's clock by ns of non-memory work.
func (c *Context) Compute(ns int64) { c.th.Advance(ns) }

// MetaOp charges one STM metadata operation (orec CAS, version-clock
// access). Metadata lives in DRAM and is modeled as a fixed cost.
func (c *Context) MetaOp() { c.th.Advance(c.bus.lat.MetaOp) }

// Load reads the word at a, charging the appropriate latency.
func (c *Context) Load(a memdev.Addr) uint64 {
	c.stats.Loads++
	c.access(a, false)
	return c.bus.dev.Load(a)
}

// Store writes the word at a, charging the appropriate latency and
// generating writeback traffic for displaced dirty lines.
func (c *Context) Store(a memdev.Addr, v uint64) {
	c.stats.Stores++
	c.access(a, true)
	c.bus.dev.Store(a, v)
	if c.bus.tap != nil && c.bus.dev.IsNVM(a) {
		c.bus.tap(PersistEvent{Kind: PEStore, Addr: a, Line: uint64(a) >> memdev.LineShift, TID: c.tid})
	}
}

// access runs the cache/pagecache/media timing for one word access.
func (c *Context) access(a memdev.Addr, write bool) {
	b := c.bus
	line := uint64(a) >> memdev.LineShift
	res := b.cache.Access(c.tid, line, write)

	// Dirty L3 victims travel to their backing store.
	if res.HasWriteback {
		c.writeback(res.WritebackLine)
	}

	now := c.th.Now()
	switch res.Level {
	case cachesim.HitL1:
		if write {
			c.th.Advance(b.lat.StoreHit)
		} else {
			c.th.Advance(b.lat.L1Hit)
		}
	case cachesim.HitL2:
		c.th.Advance(b.lat.L2Hit)
	case cachesim.HitL3:
		c.th.Advance(b.lat.L3Hit)
	default: // Miss — serviced by memory
		c.miss(a, now, write)
	}

	// Keep the page-cache dirty set conservative: any store to a
	// routed page marks it dirty even if it hit in a private level.
	// routeMode short-circuits the whole check for the domains with no
	// page cache on the NVM path.
	if write && b.routeMode != routeNone && b.dev.IsNVM(a) && b.routedNVM(a) {
		b.pcache.MarkDirty(pagecache.PageOf(uint64(a)))
	}
}

// miss services a cache miss (or RFO for a store miss) from memory.
func (c *Context) miss(a memdev.Addr, now int64, write bool) {
	b := c.bus
	switch {
	case b.dev.IsDRAM(a):
		done := b.ctl.ReadDRAM(now)
		c.th.AdvanceTo(done + b.lat.DRAMBase)
	case b.routedNVM(a):
		// Memory-Mode path: directory probe, then DRAM frame or page
		// fault.
		c.th.Advance(b.lat.PageDirProbe)
		faultStart := c.th.Now()
		done, hit := b.pcache.Access(faultStart, c.tid, pagecache.PageOf(uint64(a)), write)
		if hit {
			done = b.ctl.ReadDRAM(c.th.Now())
			c.th.AdvanceTo(done + b.lat.DRAMBase)
		} else {
			// Page fault: the wait is media time (fetch, possibly behind
			// a victim writeback).
			c.th.AdvanceTo(done + b.lat.DRAMBase)
			c.rec.Span(obs.PhaseMediaWait, faultStart, c.th.Now())
		}
	default:
		done := b.ctl.ReadNVM(now, uint64(a)>>memdev.LineShift)
		c.th.AdvanceTo(done + b.lat.NVMBase)
		c.rec.Span(obs.PhaseMediaWait, now, c.th.Now())
	}
}

// writeback routes a displaced dirty line toward its backing store.
// NVM lines enter the WPQ (and thereby the ADR durability domain);
// DRAM and page-cache-routed lines go to the DRAM channel.
func (c *Context) writeback(line uint64) {
	b := c.bus
	a := memdev.Addr(line << memdev.LineShift)
	if b.dev.IsNVM(a) && !b.routedNVM(a) {
		_, drain := b.ctl.EnqueueNVM(c.th.Now(), c.tid, line, wpq.CauseEviction)
		b.dev.WPQAccept(line, drain)
		return
	}
	b.ctl.WriteDRAM(c.th.Now())
	if b.routeMode != routeNone && b.dev.IsNVM(a) && b.routedNVM(a) {
		b.pcache.MarkDirty(pagecache.PageOf(uint64(a)))
	}
}

// NTStore performs a non-temporal store: the word bypasses the cache
// hierarchy (no write-allocate RFO) and lands in the thread's
// write-combining buffer. Consecutive stores to the same line merge;
// the buffer drains into the WPQ when the stream moves to another
// line or at the next SFence — mirroring real movnt semantics, where
// a WC buffer is volatile until it is flushed. PTMs use movnt for
// exactly the streaming log writes this models.
func (c *Context) NTStore(a memdev.Addr, v uint64) {
	b := c.bus
	c.stats.Stores++
	if b.dev.IsNVM(a) && !b.routedNVM(a) {
		line := int64(uint64(a) >> memdev.LineShift)
		if line != c.wcLine {
			c.flushWC()
			c.wcLine = line
		}
		b.dev.Store(a, v)
		c.th.Advance(b.lat.StoreHit)
		if b.tap != nil {
			b.tap(PersistEvent{Kind: PENTStore, Addr: a, Line: uint64(line), TID: c.tid})
		}
		return
	}
	b.dev.Store(a, v)
	done := b.ctl.WriteDRAM(c.th.Now())
	if done > c.pendingFence {
		c.pendingFence = done
	}
	c.th.Advance(b.lat.StoreHit)
	if b.tap != nil && b.dev.IsNVM(a) {
		b.tap(PersistEvent{Kind: PENTStore, Addr: a, Line: uint64(a) >> memdev.LineShift, TID: c.tid})
	}
}

// flushWC drains the write-combining buffer into the WPQ. A crash
// before the flush loses the buffered line (WC buffers have no power
// reserve), which is why NT-store protocols still fence.
func (c *Context) flushWC() {
	if c.wcLine < 0 {
		return
	}
	b := c.bus
	line := uint64(c.wcLine)
	c.wcLine = -1
	now := c.th.Now()
	accept, drain := b.ctl.EnqueueNVM(now, c.tid, line, wpq.CauseWCDrain)
	b.dev.WPQAccept(line, drain)
	c.rec.Span(obs.PhaseWPQStall, now, accept)
	if accept > c.pendingFence {
		c.pendingFence = accept
	}
	c.unfenced = append(c.unfenced, line)
	if b.tap != nil {
		b.tap(PersistEvent{Kind: PEWCDrain, Addr: memdev.LineAddr(line), Line: line, TID: c.tid})
	}
}

// CLWB flushes the line containing a toward the durability domain.
// Elided (no cost, no effect) when the domain does not require
// flushes. The instruction is asynchronous: the thread pays only the
// issue latency, while the flush's WPQ-accept time accumulates into
// the pending-fence horizon that the next SFence waits for. Under WPQ
// backpressure accept times fall behind, which is exactly how flush
// pressure turns into fence latency (§III-B). For DRAM lines (the
// paper's non-persistent ramdisk configuration) the flush occupies the
// DRAM channel instead.
func (c *Context) CLWB(a memdev.Addr) {
	b := c.bus
	if b.flushElided {
		return
	}
	c.stats.Flushes++
	line := uint64(a) >> memdev.LineShift
	b.cache.Clean(line)
	now := c.th.Now()
	if b.dev.IsNVM(a) {
		accept, drain := b.ctl.EnqueueNVM(now, c.tid, line, wpq.CauseCLWB)
		b.dev.WPQAccept(line, drain)
		// A clwb is asynchronous, so a queue-full delay is not a stall
		// *here* — it pushes the fence horizon out. Attribute the delay
		// to the WPQ anyway: it is the root cause the fence will pay for.
		c.rec.Span(obs.PhaseWPQStall, now, accept)
		if accept > c.pendingFence {
			c.pendingFence = accept
		}
		c.th.Advance(b.lat.CLWBNvm)
		c.unfenced = append(c.unfenced, line)
		if b.tap != nil {
			b.tap(PersistEvent{Kind: PECLWB, Addr: a, Line: line, TID: c.tid})
		}
		return
	}
	done := b.ctl.WriteDRAM(now)
	if done > c.pendingFence {
		c.pendingFence = done
	}
	c.th.Advance(b.lat.CLWBDram)
}

// SFence orders prior flushes: the thread waits until every clwb since
// the last fence has been accepted into the durability domain. Elided
// when the domain does not require fences.
func (c *Context) SFence() {
	b := c.bus
	if b.fenceElided {
		return
	}
	c.flushWC()
	c.stats.Fences++
	start := c.th.Now()
	target := start + b.lat.SFenceBase
	if c.pendingFence > target {
		target = c.pendingFence
	}
	c.th.AdvanceTo(target)
	c.rec.Span(obs.PhaseFenceWait, start, target)
	c.pendingFence = 0
	if len(c.unfenced) > 0 {
		b.dev.WPQMarkOrdered(c.unfenced)
		c.unfenced = c.unfenced[:0]
	}
	if b.tap != nil {
		b.tap(PersistEvent{Kind: PESFence, TID: c.tid})
	}
}
