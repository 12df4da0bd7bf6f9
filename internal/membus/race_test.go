package membus

import (
	"sync"
	"testing"

	"goptm/internal/durability"
	"goptm/internal/memdev"
)

// These tests exist to be run under the race detector: the lockstep
// fast paths elide every mutex and atomic in memdev, wpq, cachesim,
// pagecache, and the bus's routing table, so the concurrent-mode
// (non-lockstep) configurations must demonstrably still take the
// locked paths. A bus built WITHOUT Lockstep is hammered from many
// goroutines — shared lines, flushes, fences, stats readers — and any
// accidental leak of an unsynchronized path shows up as a detected
// race. See .github/workflows/ci.yml, which runs this package with
// -race.

// TestConcurrentBusRace drives a concurrent-mode ADR bus from several
// threads with overlapping traffic while a reader polls every stats
// surface the sweep harness consumes.
func TestConcurrentBusRace(t *testing.T) {
	const threads = 4
	bus := MustNew(Config{
		Threads:  threads,
		Domain:   durability.ADR,
		Dev:      memdev.Config{NVMWords: 1 << 14, DRAMWords: 1 << 12},
		WindowNS: 1000,
	})
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			ctx := bus.NewContext(tid)
			defer ctx.Detach()
			for i := uint64(0); i < 400; i++ {
				private := memdev.Addr(uint64(tid)<<10 | i%1024)
				shared := memdev.Addr(i % 64) // deliberately contended lines
				ctx.Store(private, i)
				ctx.Store(shared, i)
				ctx.Load(shared)
				ctx.CLWB(private)
				if i%8 == 0 {
					ctx.SFence()
				}
				if i%32 == 0 {
					// The stats surfaces the harness and recorder poll
					// while workers run.
					bus.Device().Counters()
					bus.Device().PendingLines()
					bus.Cache().HitRate()
					bus.Controller().Counters()
					bus.RoutedPageCount()
				}
			}
			ctx.SFence()
		}(tid)
	}
	wg.Wait()
	bus.Quiesce()
}

// TestConcurrentRoutedBusRace exercises the page-cache route in
// concurrent mode: a PDRAM-Lite bus routes registered pages through
// the DRAM page cache, so routedNVM's table lookup, the page cache's
// access/dirty tracking, and RoutePages registration all run under
// their locks while traffic is in flight.
func TestConcurrentRoutedBusRace(t *testing.T) {
	const threads = 4
	bus := MustNew(Config{
		Threads:    threads,
		Domain:     durability.PDRAMLite,
		Dev:        memdev.Config{NVMWords: 1 << 14, DRAMWords: 1 << 12},
		PageFrames: 64,
		WindowNS:   1000,
	})
	bus.RoutePages(0, 1<<12)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			ctx := bus.NewContext(tid)
			defer ctx.Detach()
			for i := uint64(0); i < 300; i++ {
				routed := memdev.Addr(i % (1 << 12))
				direct := memdev.Addr(1<<13 | (uint64(tid)<<8 + i%256))
				ctx.Store(routed, i)
				ctx.Load(routed)
				ctx.Store(direct, i)
				ctx.CLWB(direct)
				if i%16 == 0 {
					ctx.SFence()
					bus.RoutedPageCount()
				}
			}
			ctx.SFence()
		}(tid)
	}
	wg.Wait()
	bus.Quiesce()
}
