// Command ptmtables regenerates the paper's tables:
//
//	ptmtables -table 1    # commits/abort, TPCC (Hash), redo (Table I)
//	ptmtables -table 2    # commits/abort, TPCC (Hash), undo (Table II)
//	ptmtables -table 3    # speedup from removing fences   (Table III)
//	ptmtables -logsize    # redo-log footprint study        (§IV-B)
//	ptmtables -all
//
// Tables 1-3 run through the parallel sweep engine: -jobs N simulates
// cells concurrently (identical output), -shard i/n splits the points
// for CI. The logsize, energy, and recovery studies are seconds-scale
// single measurements and stay serial.
package main

import (
	"flag"
	"fmt"
	"os"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/energy"
	"goptm/internal/harness"
	"goptm/internal/memdev"
	"goptm/internal/runner"
	"goptm/internal/workload"
	"goptm/internal/workload/tpcc"
	"goptm/internal/workload/vacation"
)

func main() {
	table := flag.Int("table", 0, "table to regenerate: 1, 2, or 3")
	counters := flag.Bool("counters", false, "append hardware-counter tables to tables 1 and 2 (attaches the counter registry; measured numbers are unchanged)")
	logsize := flag.Bool("logsize", false, "measure redo-log footprints (§IV-B)")
	energyFlag := flag.Bool("energy", false, "estimate reserve-power needs per domain (§V open question)")
	recoveryFlag := flag.Bool("recovery", false, "measure post-crash recovery time vs outstanding log size")
	all := flag.Bool("all", false, "regenerate every table")
	full := flag.Bool("full", false, "full paper scale instead of quick scale")
	sweepOptions := runner.OptionFlags(flag.CommandLine)
	flag.Parse()

	p := harness.QuickParams()
	if *full {
		p = harness.FullParams()
	}
	p.Counters = *counters

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "ptmtables: %v\n", err)
		os.Exit(1)
	}

	opts, err := sweepOptions(os.Stderr, nil)
	if err != nil {
		fail(err)
	}
	sweepRan := false

	if *all || *table == 1 {
		fig, err := harness.RunTable12(core.OrecLazy, p, opts)
		if err != nil {
			fail(err)
		}
		fig.PrintRatios(os.Stdout)
		if p.Counters {
			fig.PrintCounters(os.Stdout)
		}
		sweepRan = true
	}
	if *all || *table == 2 {
		fig, err := harness.RunTable12(core.OrecEager, p, opts)
		if err != nil {
			fail(err)
		}
		fig.PrintRatios(os.Stdout)
		if p.Counters {
			fig.PrintCounters(os.Stdout)
		}
		sweepRan = true
	}
	if *all || *table == 3 {
		rows, err := harness.RunTable3(p, opts)
		if err != nil {
			fail(err)
		}
		fmt.Println("\nTable III — speedup from removing memory fences (ADR, Optane, 2 threads)")
		fmt.Printf("%-16s %-6s %14s %14s %9s\n", "workload", "log", "fenced ops/s", "no-fence", "speedup")
		for _, r := range rows {
			if r.Workload == "" { // sharded away
				continue
			}
			fmt.Printf("%-16s %-6s %14.0f %14.0f %8.1f%%\n",
				r.Workload, r.Algo, r.Base, r.NoFence, r.Speedup)
		}
		sweepRan = true
	}
	if sweepRan {
		fmt.Fprintf(os.Stderr, "ptmtables: %s\n", opts.Progress.Summary())
	}
	if *all || *logsize {
		if err := runLogFootprint(p); err != nil {
			fail(err)
		}
	}
	if *all || *energyFlag {
		if err := runEnergy(p); err != nil {
			fail(err)
		}
	}
	if *all || *recoveryFlag {
		if err := runRecoveryTime(); err != nil {
			fail(err)
		}
	}
	if !*all && *table == 0 && !*logsize && !*energyFlag && !*recoveryFlag {
		fmt.Fprintln(os.Stderr, "usage: ptmtables -table {1|2|3} | -logsize | -energy | -recovery | -all [-full] [-v]")
		os.Exit(2)
	}
}

// runRecoveryTime measures how long post-crash recovery takes as the
// committed-but-unwritten redo log grows — the availability cost of
// the crash-consistency machinery.
func runRecoveryTime() error {
	fmt.Println("\nRecovery time vs outstanding redo log (crash at the commit marker)")
	fmt.Printf("%-14s %10s %12s %12s\n", "log entries", "replayed", "heap blocks", "recovery")
	for _, entries := range []int{8, 64, 256, 1000} {
		tm, err := core.New(core.Config{
			Algo: core.OrecLazy, Medium: core.MediumNVM, Domain: durability.ADR,
			Threads: 1, HeapWords: 1 << 18, MaxLogEntries: 1024, OrecSize: 1 << 12,
		})
		if err != nil {
			return err
		}
		th := tm.Thread(0)
		var base memdev.Addr
		th.Atomic(func(tx *core.Tx) { base = tx.Alloc(2048) })
		for c := 0; c < 2048; c += 512 {
			c := c
			th.Atomic(func(tx *core.Tx) {
				for i := c; i < c+512; i++ {
					tx.Store(base+memdev.Addr(i), 1)
				}
			})
		}
		tm.SetRoot(th, 0, base)
		tm.SetCrashHook(func(point string, _ *core.Thread) {
			if point == "lazy:post-marker" {
				panic(core.PowerFailure{Point: point})
			}
		})
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(core.PowerFailure); !ok {
						panic(r)
					}
				}
			}()
			entries := entries
			th.Atomic(func(tx *core.Tx) {
				for i := 0; i < entries; i++ {
					tx.Store(base+memdev.Addr(i*2%2048), 2)
				}
			})
		}()
		vt := th.Now()
		th.Detach()
		tm.Crash(vt)
		_, rep, err := core.Reopen(tm.Bus(), tm.Config())
		if err != nil {
			return err
		}
		fmt.Printf("%-14d %10d %12d %9.1fµs\n",
			entries, rep.EntriesApplied, rep.BlocksSwept, float64(rep.DurationNS)/1000)
	}
	return nil
}

// runEnergy addresses the paper's §V open question: how much reserve
// power does each durability domain need? It runs TPCC (Hash Table)
// under each domain, then estimates the energy required to flush the
// machine's outstanding state at a power failure arriving at the end
// of the run.
func runEnergy(p harness.Params) error {
	fmt.Println("\nReserve-power estimate per durability domain (TPCC Hash, 8 threads; §V open question)")
	platform := energy.DefaultPlatform()
	for _, dom := range []durability.Domain{
		durability.ADR, durability.EADR, durability.PDRAM, durability.PDRAMLite,
	} {
		w := tpcc.New(tpcc.Config{Kind: tpcc.HashIndex})
		cell := harness.Cell{Medium: core.MediumNVM, Domain: dom, Algo: core.OrecLazy}
		rc := harness.RunConfig{Threads: 8, WarmupNS: p.WarmupNS, MeasureNS: p.MeasureNS}
		tm, err := harness.BuildTM(cell, rc, w)
		if err != nil {
			return err
		}
		res := harness.RunOn(tm, cell, rc, w)
		fmt.Printf("measured:   %s\n", energy.Estimate(tm.Bus(), res.EndVT, platform))
		fmt.Printf("worst case: %s\n", energy.WorstCase(tm.Bus(), platform))
	}
	fmt.Println("(flush window = time to push WPQ + dirty lines + dirty pages to the media at its write bandwidth)")
	return nil
}

// runLogFootprint reproduces the §IV-B measurement: the maximum
// number of redo-log cache lines any transaction needs (the paper
// reports 37 lines for Vacation and 36 for TPCC Hash — small enough
// that PDRAM-Lite needs only a handful of DRAM pages per thread).
func runLogFootprint(p harness.Params) error {
	rel := 16384
	if p.Small {
		rel = 4096
	}
	cases := []struct {
		name string
		mk   func() workload.Workload
	}{
		{"TPCC (Hash Table)", func() workload.Workload {
			return tpcc.New(tpcc.Config{Kind: tpcc.HashIndex})
		}},
		{"Vacation (low)", func() workload.Workload {
			return vacation.New(vacation.Config{Contention: vacation.Low, Relations: rel})
		}},
		{"Vacation (high)", func() workload.Workload {
			return vacation.New(vacation.Config{Contention: vacation.High})
		}},
	}
	fmt.Println("\nRedo-log footprint (max log lines per transaction, §IV-B)")
	for _, c := range cases {
		cell := harness.Cell{Medium: core.MediumNVM, Domain: durability.ADR, Algo: core.OrecLazy}
		rc := harness.RunConfig{Threads: 8, WarmupNS: p.WarmupNS, MeasureNS: p.MeasureNS}
		res, err := harness.Run(cell, rc, c.mk())
		if err != nil {
			return err
		}
		fmt.Printf("%-20s %3d lines (%d bytes)\n", c.name, res.MaxLogLines, res.MaxLogLines*64)
	}
	return nil
}
