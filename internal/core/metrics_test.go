package core

import (
	"strings"
	"sync"
	"testing"

	"goptm/internal/durability"
	"goptm/internal/memdev"
	"goptm/internal/metrics"
)

func TestMetricsSnapshotMachine(t *testing.T) {
	tm := smallTM(t, OrecLazy, durability.ADR, 1)
	th := tm.Thread(0)
	defer th.Detach()
	var a memdev.Addr
	th.Atomic(func(tx *Tx) {
		a = tx.Alloc(16)
		for i := 0; i < 8; i++ {
			tx.Store(a+memdev.Addr(i), uint64(i))
		}
	})
	ms := tm.MetricsSnapshot()
	if ms.Commits != 1 {
		t.Fatalf("commits = %d", ms.Commits)
	}
	if ms.NVMStores == 0 || ms.WPQAccepts == 0 {
		t.Fatalf("no NVM traffic recorded: %+v", ms)
	}
	if ms.HitRate() <= 0 || ms.HitRate() > 1 {
		t.Fatalf("hit rate = %f", ms.HitRate())
	}
	s := ms.String()
	for _, want := range []string{"commits", "flushes accepted", "cache:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
	// No page cache under ADR: the report must omit that section.
	if strings.Contains(s, "page cache:") {
		t.Fatal("ADR report mentions a page cache")
	}
}

func TestMetricsSnapshotPDRAMSection(t *testing.T) {
	tm := smallTM(t, OrecLazy, durability.PDRAM, 1)
	th := tm.Thread(0)
	defer th.Detach()
	th.Atomic(func(tx *Tx) {
		a := tx.Alloc(8)
		tx.Store(a, 1)
	})
	ms := tm.MetricsSnapshot()
	if ms.PageHits+ms.PageMisses == 0 {
		t.Fatal("PDRAM run recorded no page-cache traffic")
	}
	if !strings.Contains(ms.String(), "page cache:") {
		t.Fatal("PDRAM report missing page-cache section")
	}
}

func TestMetricsSnapshotEmptyHitRate(t *testing.T) {
	var ms metrics.Snapshot
	if ms.HitRate() != 0 {
		t.Fatal("empty stats hit rate not zero")
	}
}

func TestAbortReasonExplicit(t *testing.T) {
	tm := smallTM(t, OrecLazy, durability.ADR, 1)
	th := tm.Thread(0)
	defer th.Detach()
	var a memdev.Addr
	th.Atomic(func(tx *Tx) { a = tx.Alloc(8) })
	first := true
	th.Atomic(func(tx *Tx) {
		tx.Store(a, 7)
		if first {
			first = false
			tx.Abort()
		}
	})
	st := th.Stats()
	if st.Aborts != 1 || st.AbortReasons[AbortExplicit] != 1 {
		t.Fatalf("thread stats: aborts=%d reasons=%v", st.Aborts, st.AbortReasons)
	}
	ms := tm.MetricsSnapshot()
	if ms.AbortExplicit != 1 || ms.Aborts != 1 {
		t.Fatalf("machine snapshot: aborts=%d explicit=%d", ms.Aborts, ms.AbortExplicit)
	}
	s := ms.String()
	for _, want := range []string{"aborts by reason:", "explicit", "lock-conflict"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestAbortReasonCapacityHTM(t *testing.T) {
	tm := htmTM(t, 1)
	th := tm.Thread(0)
	defer th.Detach()
	var a memdev.Addr
	th.Atomic(func(tx *Tx) { a = tx.AllocZeroed(HTMCapacity + 8) })
	th.Atomic(func(tx *Tx) {
		for i := 0; i <= HTMCapacity; i++ {
			tx.Store(a+memdev.Addr(i), 1)
		}
	})
	st := th.Stats()
	if st.AbortReasons[AbortCapacity] != 1 {
		t.Fatalf("capacity aborts = %v", st.AbortReasons)
	}
	if st.HTMFallbacks != 1 {
		t.Fatalf("fallbacks = %d", st.HTMFallbacks)
	}
	if got := tm.MetricsSnapshot().AbortCapacity; got != 1 {
		t.Fatalf("machine capacity aborts = %d", got)
	}
}

// TestAbortReasonsSumUnderContention hammers one word from two threads
// and checks the invariant that classified aborts account for every
// abort, on each thread and machine-wide.
func TestAbortReasonsSumUnderContention(t *testing.T) {
	for _, algo := range bothAlgos {
		tm := smallTM(t, algo, durability.ADR, 2)
		setup := tm.Thread(0)
		var a memdev.Addr
		setup.Atomic(func(tx *Tx) { a = tx.Alloc(8) })

		var wg sync.WaitGroup
		threads := []*Thread{setup, tm.Thread(1)}
		for _, th := range threads {
			wg.Add(1)
			go func(th *Thread) {
				defer wg.Done()
				defer th.Detach()
				for i := 0; i < 400; i++ {
					th.Atomic(func(tx *Tx) {
						tx.Store(a, tx.Load(a)+1)
					})
				}
			}(th)
		}
		wg.Wait()

		ms := tm.MetricsSnapshot()
		machineSum := ms.AbortLockConflict + ms.AbortValidation + ms.AbortCapacity + ms.AbortExplicit
		if machineSum != tm.Aborts() {
			t.Fatalf("%v: classified %d of %d aborts", algo, machineSum, tm.Aborts())
		}
		for i, th := range threads {
			st := th.Stats()
			var sum int64
			for _, c := range st.AbortReasons {
				sum += c
			}
			if sum != st.Aborts {
				t.Fatalf("%v thread %d: classified %d of %d aborts", algo, i, sum, st.Aborts)
			}
		}
	}
}
