// Package pagecache models the Memory-Mode directory (DIR): a set of
// DRAM frames caching 4 KB pages of NVM, managed by the memory
// controller. It is the enabling mechanism for the paper's proposed
// PDRAM durability domain (all NVM pages cacheable) and PDRAM-Lite
// (only transaction-log pages cacheable).
//
// The cache is a *timing and residency* model: page contents stay in
// the memdev device (the simulated store is write-through), while this
// package decides whether an access runs at DRAM or NVM speed and
// charges page fetch / dirty-writeback transfers against the media's
// ports. Crash durability of dirty cached pages is provided by the
// durability domain (PDRAM variants flush DRAM on failure), so the
// residency model does not need to shuttle bytes.
//
// Two controller optimizations the paper names (§II-A: "the memory
// controller is responsible for implementing optimizations, such as
// prefetching and asynchronous writeback") are modeled and can be
// toggled for ablation:
//
//   - sequential prefetch: a miss on page P also schedules a fetch of
//     P+1 into a free-or-clean frame; the prefetched page becomes
//     usable when its transfer completes, without charging the
//     requesting thread.
//   - asynchronous writeback: when more than half the frames are
//     dirty, misses trigger background cleaning of the oldest dirty
//     frame, so later evictions find clean victims and skip the
//     synchronous writeback stall.
package pagecache

import (
	"container/list"
	"sync"

	"goptm/internal/wpq"
)

// WordsPerPage and LinesPerPage describe the 4 KB page geometry.
const (
	WordsPerPage = 512
	LinesPerPage = 64
	PageShift    = 9 // word address -> page number
)

// PageOf returns the NVM page number containing word address a.
func PageOf(wordAddr uint64) uint64 { return wordAddr >> PageShift }

// Config sizes the cache.
type Config struct {
	Frames int // number of DRAM frames (4 KB each)
	// NoPrefetch disables the sequential next-page prefetch.
	NoPrefetch bool
	// NoAsyncWriteback disables background cleaning of dirty frames.
	NoAsyncWriteback bool
	// Lockstep promises external serialization (the lockstep engine's
	// floor), eliding the directory mutex on every access.
	Lockstep bool
}

// Stats counts cache activity.
type Stats struct {
	Hits        int64
	Misses      int64
	Evictions   int64 // frames reclaimed (demand fills and prefetch claims)
	Writebacks  int64 // synchronous, on eviction of a dirty victim
	Prefetches  int64
	PrefetchHit int64 // hits on pages brought in by the prefetcher
	AsyncCleans int64
}

type frame struct {
	page       uint64
	dirty      bool
	prefetched bool  // brought in by the prefetcher, not yet demanded
	readyVT    int64 // transfer completion; accesses before this wait
	elem       *list.Element
}

// Cache is the directory-managed DRAM page cache. Safe for concurrent
// use unless built with Config.Lockstep, in which case the lockstep
// floor provides the serialization the elided mutex would have.
type Cache struct {
	mu     sync.Mutex
	serial bool
	cfg    Config
	frames int
	dir    map[uint64]*frame
	lru    *list.List // front = most recent; values are *frame
	dirty  int        // resident dirty frames, kept at every transition
	ctl    *wpq.Controller
	stats  Stats
}

// New builds a cache of cfg.Frames frames backed by controller ctl.
func New(cfg Config, ctl *wpq.Controller) *Cache {
	if cfg.Frames <= 0 {
		panic("pagecache: need at least one frame")
	}
	return &Cache{
		cfg:    cfg,
		serial: cfg.Lockstep,
		frames: cfg.Frames,
		dir:    make(map[uint64]*frame, cfg.Frames),
		lru:    list.New(),
		ctl:    ctl,
	}
}

// Frames reports the cache capacity in frames.
func (c *Cache) Frames() int { return c.frames }

// Access looks up page at virtual time now on behalf of thread tid.
// On a hit it returns (t, true) where t is when the data is usable
// (later than now only for an in-flight prefetch). On a miss it
// evicts the LRU frame (charging a page writeback if dirty), charges
// the page fetch, and returns the fetch completion time and false.
func (c *Cache) Access(now int64, tid int, page uint64, write bool) (done int64, hit bool) {
	if !c.serial {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	if f, ok := c.dir[page]; ok {
		c.lru.MoveToFront(f.elem)
		if write {
			c.markDirtyLocked(f)
		}
		if f.prefetched {
			f.prefetched = false
			c.stats.PrefetchHit++
		}
		c.stats.Hits++
		if f.readyVT > now {
			return f.readyVT, true // in-flight transfer: wait for it
		}
		return now, true
	}
	c.stats.Misses++
	done = c.insertLocked(now, page, write)

	if !c.cfg.NoPrefetch {
		c.prefetchLocked(now, page+1)
	}
	if !c.cfg.NoAsyncWriteback {
		c.asyncCleanLocked(now)
	}
	return done, false
}

// insertLocked makes room for page and charges its fetch; returns the
// fetch completion time.
func (c *Cache) insertLocked(now int64, page uint64, write bool) int64 {
	start := now
	if c.lru.Len() >= c.frames {
		victim := c.lru.Back().Value.(*frame)
		c.lru.Remove(victim.elem)
		delete(c.dir, victim.page)
		c.stats.Evictions++
		if victim.dirty {
			c.dirty--
			c.stats.Writebacks++
			// The fetch cannot begin until the victim's writeback has
			// freed the frame.
			start = c.ctl.WriteNVMBulk(start, LinesPerPage)
		}
	}
	done := c.ctl.ReadNVMBulk(start, LinesPerPage)
	f := &frame{page: page, readyVT: done}
	if write {
		c.markDirtyLocked(f)
	}
	f.elem = c.lru.PushFront(f)
	c.dir[page] = f
	return done
}

// markDirtyLocked marks f dirty, counting it if it was clean.
func (c *Cache) markDirtyLocked(f *frame) {
	if !f.dirty {
		f.dirty = true
		c.dirty++
	}
}

// prefetchLocked schedules a background fetch of page if it is absent
// and a frame can be claimed without a synchronous writeback (the
// prefetcher never stalls demand traffic behind a dirty victim).
func (c *Cache) prefetchLocked(now int64, page uint64) {
	if _, ok := c.dir[page]; ok {
		return
	}
	if c.lru.Len() >= c.frames {
		victim := c.lru.Back().Value.(*frame)
		if victim.dirty {
			return // would need a writeback; not worth it for a guess
		}
		c.lru.Remove(victim.elem)
		delete(c.dir, victim.page)
		c.stats.Evictions++
	}
	done := c.ctl.ReadNVMBulk(now, LinesPerPage)
	f := &frame{page: page, prefetched: true, readyVT: done}
	// Insert at the back: an unused prefetch is the first candidate to
	// go.
	f.elem = c.lru.PushBack(f)
	c.dir[page] = f
	c.stats.Prefetches++
}

// asyncCleanLocked writes back the oldest dirty frame in the
// background once more than half the frames are dirty.
func (c *Cache) asyncCleanLocked(now int64) {
	if c.dirty*2 <= c.frames {
		return
	}
	for e := c.lru.Back(); e != nil; e = e.Prev() {
		f := e.Value.(*frame)
		if f.dirty {
			f.dirty = false
			c.dirty--
			c.ctl.WriteNVMBulk(now, LinesPerPage)
			c.stats.AsyncCleans++
			return
		}
	}
}

// MarkDirty marks page dirty if it is resident, without charging any
// transfer time. Used for bookkeeping stores that hit in the CPU
// caches above the directory.
func (c *Cache) MarkDirty(page uint64) {
	if !c.serial {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	if f, ok := c.dir[page]; ok {
		c.markDirtyLocked(f)
	}
}

// Contains reports whether page is resident (for tests and recovery).
func (c *Cache) Contains(page uint64) bool {
	if !c.serial {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	_, ok := c.dir[page]
	return ok
}

// DirtyPages returns the set of resident dirty pages; the crash path
// uses it to account for the reserve power a flush would need.
func (c *Cache) DirtyPages() []uint64 {
	if !c.serial {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	var out []uint64
	for p, f := range c.dir {
		if f.dirty {
			out = append(out, p)
		}
	}
	return out
}

// Resident reports the current frame occupancy: resident pages and,
// of those, how many are dirty (observability counter tracks).
func (c *Cache) Resident() (resident, dirty int) {
	if !c.serial {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	return len(c.dir), c.dirty
}

// Stats returns cumulative counters.
func (c *Cache) Stats() Stats {
	if !c.serial {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	return c.stats
}

// Drop empties the cache (after a crash: DRAM contents are gone).
func (c *Cache) Drop() {
	if !c.serial {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	c.dir = make(map[uint64]*frame, c.frames)
	c.lru.Init()
	c.dirty = 0
}
