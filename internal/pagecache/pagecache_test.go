package pagecache

import (
	"math/rand/v2"
	"sync"
	"testing"

	"goptm/internal/wpq"
)

func ctl() *wpq.Controller {
	return wpq.New(wpq.Config{
		Depth:          64,
		NVMWritePorts:  2,
		NVMReadPorts:   4,
		DRAMWritePorts: 2,
		DRAMReadPorts:  2,
		NVMWriteHold:   100,
		NVMReadHold:    200,
		DRAMWriteHold:  50,
		DRAMReadHold:   40,
		StreamDiscount: 4,
		Threads:        8,
	})
}

// plain disables the controller optimizations so the base replacement
// behaviour can be tested in isolation.
func plain(frames int) Config {
	return Config{Frames: frames, NoPrefetch: true, NoAsyncWriteback: true}
}

func TestMissThenHit(t *testing.T) {
	c := New(plain(4), ctl())
	done, hit := c.Access(0, 0, 7, false)
	if hit {
		t.Fatal("cold access hit")
	}
	// Fetch = 64 lines * 200 / 4 = 3200.
	if done != 3200 {
		t.Fatalf("fetch done = %d, want 3200", done)
	}
	done, hit = c.Access(done, 0, 7, false)
	if !hit || done != 3200 {
		t.Fatalf("warm access: done=%d hit=%v", done, hit)
	}
}

func TestPageOf(t *testing.T) {
	if PageOf(0) != 0 || PageOf(511) != 0 || PageOf(512) != 1 {
		t.Fatal("PageOf geometry wrong")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(plain(2), ctl())
	c.Access(0, 0, 1, false)
	c.Access(0, 0, 2, false)
	c.Access(0, 0, 1, false) // refresh 1
	c.Access(0, 0, 3, false) // must evict 2
	if !c.Contains(1) || !c.Contains(3) || c.Contains(2) {
		t.Fatal("LRU eviction picked the wrong victim")
	}
}

func TestDirtyWritebackCharged(t *testing.T) {
	c := New(plain(1), ctl())
	c.Access(0, 0, 1, true) // dirty
	// Next miss: writeback 64*100/4=1600, then fetch 3200 starting at
	// 1600 -> done 4800.
	done, hit := c.Access(0, 0, 2, false)
	if hit {
		t.Fatal("unexpected hit")
	}
	if done != 4800 {
		t.Fatalf("miss with dirty victim done = %d, want 4800", done)
	}
	s := c.Stats()
	if s.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", s.Writebacks)
	}
}

func TestCleanVictimNoWriteback(t *testing.T) {
	c := New(plain(1), ctl())
	c.Access(0, 0, 1, false) // clean
	done, _ := c.Access(0, 0, 2, false)
	if done != 3200 {
		t.Fatalf("miss with clean victim done = %d, want 3200", done)
	}
	if s := c.Stats(); s.Writebacks != 0 {
		t.Fatalf("writebacks = %d, want 0", s.Writebacks)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := New(plain(2), ctl())
	c.Access(0, 0, 5, false) // clean fill
	c.Access(0, 0, 5, true)  // write hit
	dirty := c.DirtyPages()
	if len(dirty) != 1 || dirty[0] != 5 {
		t.Fatalf("dirty pages = %v, want [5]", dirty)
	}
}

func TestDrop(t *testing.T) {
	c := New(plain(2), ctl())
	c.Access(0, 0, 1, true)
	c.Drop()
	if c.Contains(1) {
		t.Fatal("page survived Drop")
	}
	if len(c.DirtyPages()) != 0 {
		t.Fatal("dirty set survived Drop")
	}
}

func TestStatsCount(t *testing.T) {
	c := New(plain(2), ctl())
	c.Access(0, 0, 1, false)
	c.Access(0, 0, 1, false)
	c.Access(0, 0, 2, false)
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestZeroFramesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero frames accepted")
		}
	}()
	New(plain(0), ctl())
}

func TestConcurrentAccess(t *testing.T) {
	c := New(plain(32), ctl())
	var wg sync.WaitGroup
	for tid := 0; tid < 8; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c.Access(int64(i), tid, uint64(i%64), i%2 == 0)
			}
		}(tid)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses != 8*2000 {
		t.Fatalf("lost accesses: %d", s.Hits+s.Misses)
	}
	// Residency never exceeds capacity.
	resident := 0
	for p := uint64(0); p < 64; p++ {
		if c.Contains(p) {
			resident++
		}
	}
	if resident > 32 {
		t.Fatalf("resident pages %d exceed capacity 32", resident)
	}
}

func TestWorkingSetFitBehaviour(t *testing.T) {
	// The Fig-8 mechanism in miniature: a working set within capacity
	// converges to ~100% hits; beyond capacity it keeps missing.
	fit := New(plain(16), ctl())
	for pass := 0; pass < 4; pass++ {
		for p := uint64(0); p < 16; p++ {
			fit.Access(0, 0, p, true)
		}
	}
	s := fit.Stats()
	if s.Misses != 16 {
		t.Fatalf("fitting working set missed %d times, want 16 cold misses", s.Misses)
	}

	over := New(plain(8), ctl())
	for pass := 0; pass < 4; pass++ {
		for p := uint64(0); p < 16; p++ {
			over.Access(0, 0, p, true)
		}
	}
	so := over.Stats()
	if so.Hits != 0 {
		t.Fatalf("LRU-thrashing working set recorded %d hits, want 0", so.Hits)
	}
}

func TestPrefetchNextPage(t *testing.T) {
	c := New(Config{Frames: 8, NoAsyncWriteback: true}, ctl())
	done, hit := c.Access(0, 0, 10, false)
	if hit {
		t.Fatal("cold miss expected")
	}
	s := c.Stats()
	if s.Prefetches != 1 {
		t.Fatalf("prefetches = %d, want 1 (page 11)", s.Prefetches)
	}
	if !c.Contains(11) {
		t.Fatal("page 11 not prefetched")
	}
	// The sequential next access is a hit, possibly waiting for the
	// in-flight transfer, but never a full demand miss.
	d2, hit := c.Access(done, 0, 11, false)
	if !hit {
		t.Fatal("prefetched page missed")
	}
	if d2 > done+3200 {
		t.Fatalf("prefetch hit waited %d, longer than a demand fetch", d2-done)
	}
	if got := c.Stats().PrefetchHit; got != 1 {
		t.Fatalf("prefetch hits = %d, want 1", got)
	}
}

func TestPrefetchNeverEvictsDirty(t *testing.T) {
	c := New(Config{Frames: 2, NoAsyncWriteback: true}, ctl())
	c.Access(0, 0, 1, true) // dirty
	c.Access(0, 0, 5, true) // dirty; miss also tries to prefetch 6
	if c.Contains(6) {
		t.Fatal("prefetcher displaced a dirty frame")
	}
}

func TestSequentialScanFasterWithPrefetch(t *testing.T) {
	scan := func(cfg Config) int64 {
		c := New(cfg, ctl())
		now := int64(0)
		for p := uint64(0); p < 32; p++ {
			done, _ := c.Access(now, 0, p, false)
			now = done
		}
		return now
	}
	with := scan(Config{Frames: 64, NoAsyncWriteback: true})
	without := scan(Config{Frames: 64, NoPrefetch: true, NoAsyncWriteback: true})
	if with >= without {
		t.Fatalf("sequential scan with prefetch (%d ns) not faster than without (%d ns)", with, without)
	}
}

func TestAsyncWritebackCleansDirtyFrames(t *testing.T) {
	c := New(Config{Frames: 4, NoPrefetch: true}, ctl())
	// Dirty three of four frames; the next miss should trigger a
	// background clean.
	c.Access(0, 0, 1, true)
	c.Access(0, 0, 2, true)
	c.Access(0, 0, 3, true)
	c.Access(0, 0, 4, false) // miss: dirty fraction > 1/2 -> clean
	s := c.Stats()
	if s.AsyncCleans == 0 {
		t.Fatal("no background cleaning under dirty pressure")
	}
	if got := len(c.DirtyPages()); got >= 3 {
		t.Fatalf("dirty pages = %d, want fewer after cleaning", got)
	}
}

func TestAsyncWritebackReducesEvictionStalls(t *testing.T) {
	// Thrash a tiny cache with dirty pages: with background cleaning,
	// more evictions find clean victims, so the scan finishes sooner.
	thrash := func(cfg Config) int64 {
		c := New(cfg, ctl())
		now := int64(0)
		for i := 0; i < 64; i++ {
			done, _ := c.Access(now, 0, uint64(i%16)*7, true)
			now = done
		}
		return now
	}
	with := thrash(Config{Frames: 4, NoPrefetch: true})
	without := thrash(Config{Frames: 4, NoPrefetch: true, NoAsyncWriteback: true})
	if with >= without {
		t.Fatalf("thrash with async writeback (%d ns) not faster than without (%d ns)", with, without)
	}
}

// TestDirtyCountMatchesRecount: the dirty count Resident reports is
// kept at every transition — write hits and fills, MarkDirty, eviction
// writeback, async clean, Drop — so after any seeded sequence of
// operations it equals DirtyPages' full recount of the directory, with
// prefetch and async writeback both on.
func TestDirtyCountMatchesRecount(t *testing.T) {
	c := New(Config{Frames: 16}, ctl())
	rng := rand.New(rand.NewPCG(1, 2))
	now := int64(0)
	for i := 0; i < 20000; i++ {
		page := uint64(rng.IntN(48))
		switch op := rng.IntN(100); {
		case op < 85:
			done, _ := c.Access(now, 0, page, rng.IntN(2) == 0)
			now = max(now, done) + 10
		case op < 99:
			c.MarkDirty(page)
		default:
			c.Drop()
		}
		if _, dirty := c.Resident(); dirty != len(c.DirtyPages()) {
			t.Fatalf("op %d: dirty count %d, recount %d", i, dirty, len(c.DirtyPages()))
		}
	}
	if st := c.Stats(); st.AsyncCleans == 0 || st.Writebacks == 0 || st.Prefetches == 0 {
		t.Fatalf("sequence missed a transition: %+v", st)
	}
}
