package membus

import (
	"sync"
	"testing"

	"goptm/internal/durability"
	"goptm/internal/memdev"
)

func busFor(t testing.TB, dom durability.Domain, threads int) *Bus {
	t.Helper()
	b, err := New(Config{
		Threads: threads,
		Domain:  dom,
		Dev:     memdev.Config{NVMWords: 1 << 16, DRAMWords: 1 << 14},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Threads: 0, Domain: durability.ADR,
		Dev: memdev.Config{NVMWords: 8, DRAMWords: 8}}); err == nil {
		t.Error("zero threads accepted")
	}
	if _, err := New(Config{Threads: 1, Domain: durability.Domain(42),
		Dev: memdev.Config{NVMWords: 8, DRAMWords: 8}}); err == nil {
		t.Error("invalid domain accepted")
	}
	if _, err := New(Config{Threads: 1, Domain: durability.ADR,
		Dev: memdev.Config{NVMWords: 7, DRAMWords: 8}}); err == nil {
		t.Error("invalid device config accepted")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	b := busFor(t, durability.ADR, 1)
	c := b.NewContext(0)
	defer c.Detach()
	c.Store(100, 42)
	if v := c.Load(100); v != 42 {
		t.Fatalf("load = %d, want 42", v)
	}
	c.Store(memdev.DRAMBase+5, 9)
	if v := c.Load(memdev.DRAMBase + 5); v != 9 {
		t.Fatalf("DRAM load = %d, want 9", v)
	}
}

func TestTimeAdvancesOnAccess(t *testing.T) {
	b := busFor(t, durability.ADR, 1)
	c := b.NewContext(0)
	defer c.Detach()
	t0 := c.Now()
	c.Load(0) // cold miss: NVM media
	coldNVM := c.Now() - t0
	if coldNVM < b.lat.NVMBase {
		t.Fatalf("NVM cold miss took %d ns, want >= %d", coldNVM, b.lat.NVMBase)
	}
	t1 := c.Now()
	c.Load(0) // L1 hit
	if d := c.Now() - t1; d != b.lat.L1Hit {
		t.Fatalf("L1 hit took %d ns, want %d", d, b.lat.L1Hit)
	}
}

func TestNVMLoadSlowerThanDRAM(t *testing.T) {
	b := busFor(t, durability.ADR, 2)
	cn := b.NewContext(0)
	cd := b.NewContext(1)
	done := make(chan int64, 2)
	go func() {
		t0 := cn.Now()
		cn.Load(0)
		done <- cn.Now() - t0
		cn.Detach()
	}()
	go func() {
		t0 := cd.Now()
		cd.Load(memdev.DRAMBase)
		done <- cd.Now() - t0
		cd.Detach()
	}()
	a, bb := <-done, <-done
	lo, hi := min64t(a, bb), max64(a, bb)
	// NVM cold load should be roughly 3x the DRAM one.
	if hi < 2*lo {
		t.Fatalf("NVM/DRAM cold-miss ratio too small: %d vs %d", hi, lo)
	}
}

func min64t(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func TestCLWBElidedUnderEADR(t *testing.T) {
	for _, dom := range []durability.Domain{durability.EADR, durability.PDRAM, durability.PDRAMLite} {
		b := busFor(t, dom, 1)
		c := b.NewContext(0)
		c.Store(0, 1)
		t0 := c.Now()
		c.CLWB(0)
		c.SFence()
		if c.Now() != t0 {
			t.Errorf("%v: clwb+sfence advanced time by %d", dom, c.Now()-t0)
		}
		s := c.Stats()
		if s.Flushes != 0 || s.Fences != 0 {
			t.Errorf("%v: elided ops counted: %+v", dom, s)
		}
		c.Detach()
	}
}

func TestCLWBChargedUnderADR(t *testing.T) {
	b := busFor(t, durability.ADR, 1)
	c := b.NewContext(0)
	defer c.Detach()
	c.Store(0, 1)
	t0 := c.Now()
	c.CLWB(0)
	if d := c.Now() - t0; d < b.lat.CLWBNvm {
		t.Fatalf("NVM clwb took %d, want >= %d", d, b.lat.CLWBNvm)
	}
	s := c.Stats()
	if s.Flushes != 1 {
		t.Fatalf("flush count = %d", s.Flushes)
	}
}

func TestSFenceWaitsForAccept(t *testing.T) {
	b := busFor(t, durability.ADR, 1)
	c := b.NewContext(0)
	defer c.Detach()
	// Saturate the WPQ so accepts fall behind, then fence.
	for i := 0; i < 200; i++ {
		a := memdev.Addr(i * memdev.WordsPerLine)
		c.Store(a, 1)
		c.CLWB(a)
	}
	preFence := c.Now()
	c.SFence()
	if c.Now() < preFence+b.lat.SFenceBase {
		t.Fatal("fence cost not charged")
	}
	if s := c.Stats(); s.Fences != 1 {
		t.Fatalf("fence count = %d", s.Fences)
	}
}

func TestCrashADRKeepsFlushedOnly(t *testing.T) {
	b := busFor(t, durability.ADR, 1)
	c := b.NewContext(0)
	c.Store(0, 11)
	c.CLWB(0)
	c.SFence()
	c.Store(64, 22) // line 8, never flushed
	vt := c.Now()
	c.Detach()
	b.Crash(vt)
	if b.Device().Load(0) != 11 {
		t.Fatal("flushed+fenced store lost under ADR")
	}
	if b.Device().Load(64) != 0 {
		t.Fatal("unflushed store survived ADR crash")
	}
}

func TestCrashEADRKeepsEverything(t *testing.T) {
	b := busFor(t, durability.EADR, 1)
	c := b.NewContext(0)
	c.Store(0, 11)
	c.Store(64, 22)
	vt := c.Now()
	c.Detach()
	b.Crash(vt)
	if b.Device().Load(0) != 11 || b.Device().Load(64) != 22 {
		t.Fatal("stores lost under eADR")
	}
}

func TestPDRAMRoutesNVMThroughPageCache(t *testing.T) {
	b := busFor(t, durability.PDRAM, 1)
	c := b.NewContext(0)
	defer c.Detach()
	c.Load(0)
	st := b.PageCache().Stats()
	if st.Misses != 1 {
		t.Fatalf("page cache misses = %d, want 1 (cold fault)", st.Misses)
	}
	// A far-away word on the same page: CPU cache miss, page hit.
	c.Load(256)
	st = b.PageCache().Stats()
	if st.Hits != 1 {
		t.Fatalf("page cache hits = %d, want 1", st.Hits)
	}
}

func TestPDRAMWarmSpeedApproachesDRAM(t *testing.T) {
	// After warmup, PDRAM NVM accesses should be DRAM-class, far from
	// NVM-class. Compare cold NVM (ADR) vs warm PDRAM miss costs.
	bp := busFor(t, durability.PDRAM, 1)
	cp := bp.NewContext(0)
	defer cp.Detach()
	// Touch enough distinct lines on one page to stay within the page
	// but miss the L1 (stride one line).
	for i := 0; i < 8; i++ {
		cp.Load(memdev.Addr(i * memdev.WordsPerLine))
	}
	t0 := cp.Now()
	cp.Load(memdev.Addr(8 * memdev.WordsPerLine)) // same page, new line
	warm := cp.Now() - t0
	if warm > 200 {
		t.Fatalf("warm PDRAM line miss took %d ns, want DRAM-class (< 200)", warm)
	}
}

func TestPDRAMLiteRoutesOnlyRegisteredRanges(t *testing.T) {
	b := busFor(t, durability.PDRAMLite, 1)
	b.RoutePages(0, 512) // first page only
	c := b.NewContext(0)
	defer c.Detach()
	c.Load(0) // routed: page fault
	if st := b.PageCache().Stats(); st.Misses != 1 {
		t.Fatalf("routed load did not hit directory: %+v", st)
	}
	c.Load(4096) // outside the routed range: direct NVM
	if st := b.PageCache().Stats(); st.Misses != 1 {
		t.Fatalf("unrouted load went through page cache: %+v", st)
	}
}

func TestRoutePagesIgnoredOutsidePDRAMLite(t *testing.T) {
	b := busFor(t, durability.ADR, 1)
	b.RoutePages(0, 512)
	c := b.NewContext(0)
	defer c.Detach()
	c.Load(0)
	if b.PageCache() != nil {
		t.Fatal("ADR bus has a page cache")
	}
}

func TestEvictionTraffic(t *testing.T) {
	// Writing far more lines than the hierarchy holds must generate
	// WPQ traffic even without explicit flushes (the eADR writeback
	// path the paper describes in §III-C).
	b, err := New(Config{
		Threads: 1,
		Domain:  durability.EADR,
		Dev:     memdev.Config{NVMWords: 1 << 16, DRAMWords: 1 << 14},
		L3Lines: 1024, // small L3 so the working set overflows it
	})
	if err != nil {
		t.Fatal(err)
	}
	c := b.NewContext(0)
	defer c.Detach()
	for i := 0; i < 8192; i++ {
		c.Store(memdev.Addr(i*memdev.WordsPerLine), uint64(i))
	}
	accepts := b.Controller().Counters().Accepts
	if accepts == 0 {
		t.Fatal("no natural writeback traffic reached the WPQ")
	}
}

func TestStatsCounts(t *testing.T) {
	b := busFor(t, durability.ADR, 1)
	c := b.NewContext(0)
	defer c.Detach()
	c.Load(0)
	c.Store(0, 1)
	c.CLWB(0)
	c.SFence()
	s := c.Stats()
	if s.Loads != 1 || s.Stores != 1 || s.Flushes != 1 || s.Fences != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestComputeAdvances(t *testing.T) {
	b := busFor(t, durability.ADR, 1)
	c := b.NewContext(0)
	defer c.Detach()
	c.Compute(500)
	if c.Now() != 500 {
		t.Fatalf("Now = %d after Compute(500)", c.Now())
	}
	c.MetaOp()
	if c.Now() != 500+b.lat.MetaOp {
		t.Fatalf("Now = %d after MetaOp", c.Now())
	}
}

func TestTIDOutOfRangePanics(t *testing.T) {
	b := busFor(t, durability.ADR, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range tid accepted")
		}
	}()
	b.NewContext(1)
}

func TestConcurrentContexts(t *testing.T) {
	const threads = 8
	b := busFor(t, durability.ADR, threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			c := b.NewContext(tid)
			defer c.Detach()
			base := memdev.Addr(tid * 1024)
			for i := 0; i < 500; i++ {
				a := base + memdev.Addr(i%128)
				c.Store(a, uint64(i))
				if i%8 == 0 {
					c.CLWB(a)
					c.SFence()
				}
				c.Load(a)
			}
		}(tid)
	}
	wg.Wait()
	// Every thread's private region must hold its final values.
	dev := b.Device()
	for tid := 0; tid < threads; tid++ {
		base := memdev.Addr(tid * 1024)
		for i := 0; i < 128; i++ {
			want := uint64(499 - (499-i)%128 + i - i) // last store to slot i
			_ = want
			_ = dev.Load(base + memdev.Addr(i))
		}
	}
}

func TestQuiesceMakesAllDurable(t *testing.T) {
	b := busFor(t, durability.NoReserve, 1)
	c := b.NewContext(0)
	c.Store(0, 77)
	c.CLWB(0)
	c.SFence()
	vt := c.Now()
	c.Detach()
	b.Quiesce()
	b.Crash(vt)
	if b.Device().Load(0) != 77 {
		t.Fatal("quiesced store lost")
	}
}

func TestNTStoreDurableAfterFence(t *testing.T) {
	// A fenced NT store is durable with no clwb at all; an unfenced
	// one sits in the volatile write-combining buffer and dies with
	// the power.
	b := busFor(t, durability.ADR, 1)
	c := b.NewContext(0)
	c.NTStore(0, 77)
	c.SFence()
	c.NTStore(64, 88) // line 8: unfenced, still write-combining
	vt := c.Now()
	c.Detach()
	b.Crash(vt)
	if b.Device().Load(0) != 77 {
		t.Fatal("fenced non-temporal store lost under ADR")
	}
	if b.Device().Load(64) != 0 {
		t.Fatal("unfenced NT store survived; WC buffers must be volatile")
	}
}

func TestNTStoreCoalescesSameLine(t *testing.T) {
	// Consecutive NT stores to one line must merge into a single WPQ
	// entry (the write-combining buffer), not one per word.
	b := busFor(t, durability.ADR, 1)
	c := b.NewContext(0)
	defer c.Detach()
	for w := 0; w < memdev.WordsPerLine; w++ {
		c.NTStore(memdev.Addr(w), uint64(w+1))
	}
	c.SFence()
	accepts := b.Controller().Counters().Accepts
	if accepts != 1 {
		t.Fatalf("8 same-line NT stores produced %d WPQ entries, want 1", accepts)
	}
	// And the flushed payload carries every word.
	vt := c.Now()
	b.Crash(vt)
	for w := 0; w < memdev.WordsPerLine; w++ {
		if got := b.Device().Load(memdev.Addr(w)); got != uint64(w+1) {
			t.Fatalf("word %d = %d after crash, want %d", w, got, w+1)
		}
	}
}

func TestNTStoreBypassesCache(t *testing.T) {
	b := busFor(t, durability.ADR, 1)
	c := b.NewContext(0)
	defer c.Detach()
	c.NTStore(64, 5) // line 8
	// A subsequent load must MISS (the line was never cached).
	t0 := c.Now()
	if got := c.Load(64); got != 5 {
		t.Fatalf("load after ntstore = %d", got)
	}
	if d := c.Now() - t0; d < 100 {
		t.Fatalf("load after ntstore hit a cache (%d ns); NT stores must bypass", d)
	}
}

func TestNTStoreFeedsFence(t *testing.T) {
	b := busFor(t, durability.ADR, 1)
	c := b.NewContext(0)
	defer c.Detach()
	// Saturate the WPQ with NT stores; the next fence must wait.
	for i := 0; i < 200; i++ {
		c.NTStore(memdev.Addr(i*memdev.WordsPerLine), 1)
	}
	t0 := c.Now()
	c.SFence()
	if c.Now()-t0 <= b.lat.SFenceBase {
		t.Fatal("fence after saturating NT stores did not wait for accepts")
	}
}

func TestNTStoreToDRAM(t *testing.T) {
	b := busFor(t, durability.ADR, 1)
	c := b.NewContext(0)
	defer c.Detach()
	c.NTStore(memdev.DRAMBase+3, 9)
	if c.Load(memdev.DRAMBase+3) != 9 {
		t.Fatal("DRAM ntstore lost")
	}
}

func TestPDRAMStoreMissFaultsPage(t *testing.T) {
	b := busFor(t, durability.PDRAM, 1)
	c := b.NewContext(0)
	defer c.Detach()
	c.Store(0, 5) // write miss: page fault with write-allocate
	st := b.PageCache().Stats()
	if st.Misses != 1 {
		t.Fatalf("page-cache misses = %d, want 1", st.Misses)
	}
	dirty := b.PageCache().DirtyPages()
	if len(dirty) != 1 || dirty[0] != 0 {
		t.Fatalf("dirty pages = %v, want [0]", dirty)
	}
}

func TestPDRAMWritebackStaysOffNVMPorts(t *testing.T) {
	// Under PDRAM, dirty L3 victims go to the DRAM frame, not the WPQ:
	// the NVM write ports see only page-granularity traffic.
	b, err := New(Config{
		Threads: 1,
		Domain:  durability.PDRAM,
		Dev:     memdev.Config{NVMWords: 1 << 16, DRAMWords: 1 << 14},
		L3Lines: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := b.NewContext(0)
	defer c.Detach()
	// Stay within one page-cache working set but overflow the L3.
	for i := 0; i < 4096; i++ {
		c.Store(memdev.Addr((i%2048)*memdev.WordsPerLine%(1<<16)), uint64(i))
	}
	accepts := b.Controller().Counters().Accepts
	if accepts != 0 {
		t.Fatalf("PDRAM line evictions reached the WPQ: %d accepts", accepts)
	}
}

func TestQuiesceThenNoReserveCrash(t *testing.T) {
	b := busFor(t, durability.NoReserve, 1)
	c := b.NewContext(0)
	c.Store(0, 3)
	c.CLWB(0)
	vt := c.Now()
	c.Detach()
	// Without quiesce the drain may be in flight; with quiesce the
	// strictest domain keeps the data.
	b.Quiesce()
	b.Crash(vt)
	if b.Device().Load(0) != 3 {
		t.Fatal("quiesced store lost under NoReserve")
	}
}
