// Banking: a concurrent persistent bank. Four tellers transfer money
// between accounts under the PTM while an auditor repeatedly checks,
// inside read-only transactions, that the total balance is conserved
// — demonstrating atomicity and isolation under real concurrency,
// plus the throughput cost of the durability domain.
//
//	go run ./examples/banking
package main

import (
	"fmt"
	"log"
	"strings"
	"sync"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/memdev"
)

const (
	tellers        = 4
	accounts       = 128
	initialBalance = 1_000
	transfersEach  = 2_000
)

func main() {
	for _, dom := range []durability.Domain{durability.ADR, durability.EADR, durability.PDRAM} {
		runBank(dom)
	}
}

func runBank(dom durability.Domain) {
	tm, err := core.New(core.Config{
		Algo:      core.OrecLazy,
		Medium:    core.MediumNVM,
		Domain:    dom,
		Threads:   tellers + 1, // +1 auditor
		HeapWords: 1 << 16,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Open the bank.
	setup := tm.Thread(0)
	var ledger memdev.Addr
	setup.Atomic(func(tx *core.Tx) {
		ledger = tx.Alloc(accounts)
		for a := 0; a < accounts; a++ {
			tx.Store(ledger+memdev.Addr(a), initialBalance)
		}
	})
	tm.SetRoot(setup, 0, ledger)
	setup.Detach()

	// Attach everyone to the virtual-time barrier before anyone runs.
	threads := make([]*core.Thread, tellers+1)
	for i := range threads {
		threads[i] = tm.Thread(i)
	}

	var wg sync.WaitGroup
	var audits, violations int
	for tid := 0; tid < tellers; tid++ {
		wg.Add(1)
		go func(th *core.Thread) {
			defer wg.Done()
			defer th.Detach()
			r := th.Rand()
			for i := 0; i < transfersEach; i++ {
				from := memdev.Addr(r.Intn(accounts))
				to := memdev.Addr(r.Intn(accounts))
				amt := uint64(r.Intn(50))
				th.Atomic(func(tx *core.Tx) {
					tx.Store(ledger+from, tx.Load(ledger+from)-amt)
					tx.Store(ledger+to, tx.Load(ledger+to)+amt)
				})
			}
		}(threads[tid])
	}
	wg.Add(1)
	go func(th *core.Thread) {
		defer wg.Done()
		defer th.Detach()
		for i := 0; i < 200; i++ {
			var sum uint64
			th.Atomic(func(tx *core.Tx) {
				sum = 0
				for a := 0; a < accounts; a++ {
					sum += tx.Load(ledger + memdev.Addr(a))
				}
			})
			audits++
			if sum != accounts*initialBalance {
				violations++
			}
			th.Compute(10_000) // audit every 10 µs of virtual time
		}
	}(threads[tellers])
	wg.Wait()

	var final uint64
	check := tm.Thread(0)
	check.Atomic(func(tx *core.Tx) {
		final = 0
		for a := 0; a < accounts; a++ {
			final += tx.Load(ledger + memdev.Addr(a))
		}
	})
	elapsed := check.Now()
	check.Detach()

	fmt.Printf("%-10s %5d transfers, %3d mid-flight audits (%d violations), total=%d, virtual time %.2f ms, commits/abort %.1f\n",
		dom, tellers*transfersEach, audits, violations, final,
		float64(elapsed)/1e6,
		float64(tm.Commits())/float64(max64(tm.Aborts(), 1)))
	if violations > 0 || final != accounts*initialBalance {
		log.Fatal("invariant violated — the PTM failed isolation/atomicity")
	}
	if dom == durability.ADR {
		fmt.Printf("machine snapshot under %s:\n%s\n", dom, indent(tm.MetricsSnapshot().String()))
	}
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n  ")
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
