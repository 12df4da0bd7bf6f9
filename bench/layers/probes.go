package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"goptm/internal/cachesim"
	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/membus"
	"goptm/internal/memdev"
	"goptm/internal/orec"
	"goptm/internal/pagecache"
	"goptm/internal/simtime"
	"goptm/internal/wpq"

	"goptm/bench/quant"
)

// Probe budgets are fixed, so a number moves only when the code under
// it does. Single-thread probes run the components in their lockstep
// (serialised) configuration, the one every sweep cell uses.
const (
	probeChunk = 1000 // calls per span

	membusRounds  = 200 // x probeChunk rounds of store+clwb+sfence+load
	cacheAccesses = 400 // x probeChunk
	pageAccesses  = 400
	wpqEnqueues   = 200
	devAccepts    = 200
	orecPairs     = 1000
	commitTxns    = 40
	handoffRounds = 3000 // per thread, 32 threads
	barrierRounds = 20000
)

// timed runs chunks spans of probeChunk calls each under one parent
// span and returns host nanoseconds per call: the median chunk's, so a
// preemption moves one chunk and not the probe.
func timed(tr *tracer, name string, chunks int, call func(i int)) float64 {
	perCall := make([]float64, chunks)
	tr.begin(name)
	for c := range perCall {
		tr.begin(name + " x1000")
		start := time.Now()
		for i := c * probeChunk; i < (c+1)*probeChunk; i++ {
			call(i)
		}
		perCall[c] = float64(time.Since(start).Nanoseconds()) / probeChunk
		tr.end()
	}
	tr.end()
	return quant.Median(perCall)
}

func probes(rep *report, tr *tracer, _ string) error {
	tr.begin("probes")
	defer tr.end()

	// membus: the canonical persist sequence of perfbench.OpPath.
	bus := membus.MustNew(membus.Config{
		Threads: 1, Domain: durability.ADR, Lockstep: true,
		Dev: memdev.Config{NVMWords: 1 << 20, DRAMWords: 1 << 14},
	})
	ctx := bus.NewContext(0)
	const span = 1 << 14 // words; beyond L1+L2, so misses occur
	persist := func(i int) {
		a := memdev.Addr(uint64(i*9) % span)
		ctx.Store(a, uint64(i))
		ctx.CLWB(a)
		ctx.SFence()
		ctx.Load(a)
	}
	for i := 0; i < span; i++ {
		persist(i) // warm: capacity growth happens here
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 10*probeChunk; i++ {
		persist(i)
	}
	runtime.ReadMemStats(&m1)
	rep.set("membus.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/(4*10*probeChunk), "count", 4*10*probeChunk)
	rep.set("membus.op_host_ns", timed(tr, "membus store+clwb+sfence+load", membusRounds, persist)/4, "ns", 4*membusRounds*probeChunk)
	ctx.Detach()

	// cachesim: a fixed line stream over twice the L3, a third writes.
	const l3Lines = 4096
	ccfg := cachesim.DefaultConfig(1, l3Lines)
	ccfg.Lockstep = true
	cache := cachesim.New(ccfg)
	var cs stream
	rep.set("cachesim.access_host_ns", timed(tr, "cachesim.Hierarchy.Access", cacheAccesses, func(i int) {
		// Half the accesses re-touch a small hot set, so all levels hit.
		line := uint64(cs.next(2 * l3Lines))
		if i%2 == 0 {
			line %= 256
		}
		cache.Access(0, line, i%3 == 0)
	}), "ns", cacheAccesses*probeChunk)

	// pagecache: a fixed page stream over twice the frames.
	const frames = 1024
	wcfg := wpq.DefaultConfig(1)
	wcfg.Lockstep = true
	pc := pagecache.New(pagecache.Config{Frames: frames, Lockstep: true}, wpq.New(wcfg))
	var ps stream
	now := int64(0)
	rep.set("pagecache.access_host_ns", timed(tr, "pagecache.Cache.Access", pageAccesses, func(i int) {
		page := uint64(ps.next(2 * frames))
		if i%2 == 0 {
			page %= 64
		}
		done, _ := pc.Access(now, 0, page, i%3 == 0)
		now = max(now, done) + 100
	}), "ns", pageAccesses*probeChunk)
	pstats := pc.Stats()
	rep.set("pagecache.hit_rate", float64(pstats.Hits)/float64(pstats.Hits+pstats.Misses), "ratio", pageAccesses*probeChunk)

	// wpq: enqueue faster than the media drains, so the queue fills and
	// accepts stall — the saturated regime of the paper.
	ctl := wpq.New(wcfg)
	now = 0
	rep.set("wpq.enqueue_host_ns", timed(tr, "wpq.Controller.EnqueueNVM", wpqEnqueues, func(i int) {
		accept, _ := ctl.EnqueueNVM(now, 0, uint64(i*7)%(1<<16), wpq.CauseCLWB)
		now = accept + 10
	}), "ns", wpqEnqueues*probeChunk)

	// memdev: accept lines into the pending set, then drain it whole.
	dev, err := memdev.New(memdev.Config{NVMWords: 1 << 20, DRAMWords: 1 << 10, Lockstep: true})
	if err != nil {
		return err
	}
	lines := dev.NVMWords() >> memdev.LineShift
	rep.set("memdev.wpq_accept_host_ns", timed(tr, "memdev.Device.WPQAccept", devAccepts, func(i int) {
		dev.WPQAccept(uint64(i*13)%lines, int64(i))
		if i%4096 == 4095 {
			dev.DrainAll() // keep the pending set the size a server sees
		}
	}), "ns", devAccepts*probeChunk)
	for _, pending := range []int{64, 1024} {
		const drains = 200
		name := fmt.Sprintf("memdev.Device.DrainAll(%d pending)", pending)
		var total time.Duration
		tr.begin(name)
		for r := 0; r < drains; r++ {
			dev.DrainAll()
			for i := 0; i < pending; i++ {
				dev.WPQAccept(uint64(r*7+i*13)%lines, int64(pending-i))
			}
			start := time.Now()
			if n, _ := dev.DrainAll(); n == 0 {
				return fmt.Errorf("probes: DrainAll applied nothing with %d lines accepted", pending)
			}
			total += time.Since(start)
		}
		tr.end()
		rep.set(fmt.Sprintf("memdev.drain_all_host_us_%d", pending), float64(total.Nanoseconds())/1e3/drains, "us", drains)
	}

	// orec: uncontended lock/release pairs on the concurrent table.
	table := orec.New(1 << 16)
	rep.set("orec.trylock_release_host_ns", timed(tr, "orec.Table.TryLock+Release", orecPairs, func(i int) {
		slot := i & (1<<16 - 1)
		ver := uint64(i >> 16)
		if table.TryLock(slot, 1, ver) {
			table.Release(slot, ver+1)
		}
	}), "ns", orecPairs*probeChunk)

	// core: a four-store redo transaction on Optane ADR.
	tm, err := core.New(core.Config{
		Algo: core.OrecLazy, Medium: core.MediumNVM, Domain: durability.ADR,
		Threads: 1, HeapWords: 1 << 18, Lockstep: true,
	})
	if err != nil {
		return err
	}
	th := tm.Thread(0)
	var block memdev.Addr
	th.Atomic(func(tx *core.Tx) { block = tx.AllocZeroed(1 << 12) })
	rep.set("core.commit_host_ns", timed(tr, "core.Thread.Atomic(4 stores)", commitTxns, func(i int) {
		th.Atomic(func(tx *core.Tx) {
			for w := 0; w < 4; w++ {
				tx.Store(block+memdev.Addr((i*4+w*67)&(1<<12-1)), uint64(i))
			}
		})
	}), "ns", commitTxns*probeChunk)
	th.Detach()

	// simtime: 32 lockstep threads handing the floor round (every
	// Advance is a handoff), and two concurrent-engine threads crossing
	// a window barrier on every Advance — the coupling a multi-shard
	// server pays.
	tr.begin("simtime lockstep handoff 32t")
	rate := advanceAll(simtime.NewLockstepEngine(1000), 32, handoffRounds)
	tr.end()
	rep.set("simtime.handoffs_per_s_32t", rate, "1/s", 32*handoffRounds)
	tr.begin("simtime concurrent barrier 2t")
	rate = advanceAll(simtime.NewEngine(1000), 2, barrierRounds)
	tr.end()
	rep.set("simtime.barrier_crossings_per_s_2t", rate/2, "1/s", barrierRounds)
	return nil
}

// advanceAll runs threads workers that each Advance one full window
// rounds times and returns Advances per host second.
func advanceAll(e *simtime.Engine, threads, rounds int) float64 {
	ths := make([]*simtime.Thread, threads)
	for i := range ths {
		ths[i] = e.NewThread(i)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, th := range ths {
		wg.Add(1)
		go func(th *simtime.Thread) {
			defer wg.Done()
			defer th.Detach()
			for r := 0; r < rounds; r++ {
				th.Advance(1000)
			}
		}(th)
	}
	wg.Wait()
	return float64(threads*rounds) / time.Since(start).Seconds()
}
