package core

import (
	"testing"

	"goptm/internal/durability"
	"goptm/internal/memdev"
)

func TestAlgoAndMediumStrings(t *testing.T) {
	if OrecLazy.String() != "redo" || OrecEager.String() != "undo" || AlgoHTM.String() != "htm" {
		t.Fatal("algo names wrong")
	}
	if Algo(9).String() == "" {
		t.Fatal("unknown algo name empty")
	}
	if MediumNVM.String() != "Optane" || MediumDRAM.String() != "DRAM" {
		t.Fatal("medium names wrong")
	}
	if Medium(9).String() == "" {
		t.Fatal("unknown medium name empty")
	}
}

func TestDescStrideLineAligned(t *testing.T) {
	for _, maxLog := range []int{1, 7, 64, 1000, 1024} {
		s := descStride(maxLog)
		if s%memdev.WordsPerLine != 0 {
			t.Fatalf("descStride(%d) = %d not line aligned", maxLog, s)
		}
		if s < uint64(descEntries+2*maxLog) {
			t.Fatalf("descStride(%d) = %d too small", maxLog, s)
		}
	}
}

func TestDescriptorsDisjoint(t *testing.T) {
	tm := smallTM(t, OrecLazy, durability.ADR, 4)
	stride := descStride(tm.Config().MaxLogEntries)
	for i := 0; i < 3; i++ {
		lo, hi := tm.descBase(i), tm.descBase(i+1)
		if uint64(hi-lo) != stride {
			t.Fatalf("descriptors %d/%d overlap or gap: %d vs stride %d", i, i+1, hi-lo, stride)
		}
		// The last log entry of thread i must stay inside its stride.
		lastEntry := lo + descEntries + memdev.Addr(2*(tm.Config().MaxLogEntries-1)) + 1
		if lastEntry >= hi {
			t.Fatalf("thread %d log spills into thread %d descriptor", i, i+1)
		}
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}
	d := c.withDefaults()
	if d.MaxLogEntries != 1024 || d.HeapWords != 1<<20 || d.Threads != 1 {
		t.Fatalf("defaults = %+v", d)
	}
	// The original is not mutated.
	if c.MaxLogEntries != 0 {
		t.Fatal("withDefaults mutated its receiver")
	}
}

func TestNoSplitLogStillCorrect(t *testing.T) {
	// The ablation changes timing only; read-after-write must behave
	// identically.
	tm, err := New(Config{
		Algo: OrecLazy, Medium: MediumNVM, Domain: durability.ADR,
		Threads: 1, HeapWords: 1 << 14, MaxLogEntries: 64, OrecSize: 1 << 10,
		NoSplitLog: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	th := tm.Thread(0)
	defer th.Detach()
	var a memdev.Addr
	th.Atomic(func(tx *Tx) {
		a = tx.Alloc(8)
		tx.Store(a, 5)
		if tx.Load(a) != 5 {
			t.Fatal("read-own-write broken with unified log")
		}
		tx.Store(a, 6)
		if tx.Load(a) != 6 {
			t.Fatal("read-after-overwrite broken with unified log")
		}
	})
	th.Atomic(func(tx *Tx) {
		if tx.Load(a) != 6 {
			t.Fatal("commit broken with unified log")
		}
	})
}

func TestBatchedFlushCrashConsistent(t *testing.T) {
	// With flushes deferred to commit, the post-marker crash must still
	// replay correctly: F1 flushes the whole log before the marker.
	tm, err := New(Config{
		Algo: OrecLazy, Medium: MediumNVM, Domain: durability.ADR,
		Threads: 1, HeapWords: 1 << 14, MaxLogEntries: 64, OrecSize: 1 << 10,
		BatchedFlush: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	th := tm.Thread(0)
	var base memdev.Addr
	th.Atomic(func(tx *Tx) {
		base = tx.Alloc(16)
		for i := 0; i < 16; i++ {
			tx.Store(base+memdev.Addr(i), 1)
		}
	})
	tm.SetRoot(th, 0, base)
	th.Detach()
	tm2, rep := runUntilCrash(t, tm, "lazy:post-marker", func(tx *Tx) {
		for i := 0; i < 16; i++ {
			tx.Store(base+memdev.Addr(i), 2)
		}
	})
	if rep.RedoReplayed != 1 {
		t.Fatalf("batched-flush crash: %+v", rep)
	}
	assertAll(t, readCells(t, tm2, base, 16), 2, "batched flush crash")
}

func TestLatencyHistogramOnThread(t *testing.T) {
	tm := smallTM(t, OrecLazy, durability.ADR, 1)
	th := tm.Thread(0)
	defer th.Detach()
	for i := 0; i < 50; i++ {
		th.Atomic(func(tx *Tx) {
			a := tx.Alloc(8)
			tx.Store(a, 1)
		})
	}
	h := th.Latency()
	if h.Count() != 50 {
		t.Fatalf("latency samples = %d, want 50", h.Count())
	}
	if h.Percentile(50) <= 0 {
		t.Fatal("p50 latency zero")
	}
}

func TestNTStoreLogCrashConsistent(t *testing.T) {
	// Non-temporal log appends must leave the redo log durable at the
	// marker, exactly like the clwb strategy.
	tm, err := New(Config{
		Algo: OrecLazy, Medium: MediumNVM, Domain: durability.ADR,
		Threads: 1, HeapWords: 1 << 14, MaxLogEntries: 64, OrecSize: 1 << 10,
		NTStoreLog: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	th := tm.Thread(0)
	var base memdev.Addr
	th.Atomic(func(tx *Tx) {
		base = tx.Alloc(16)
		for i := 0; i < 16; i++ {
			tx.Store(base+memdev.Addr(i), 1)
		}
	})
	tm.SetRoot(th, 0, base)
	th.Detach()
	tm2, rep := runUntilCrash(t, tm, "lazy:post-marker", func(tx *Tx) {
		for i := 0; i < 16; i++ {
			tx.Store(base+memdev.Addr(i), 2)
		}
	})
	if rep.RedoReplayed != 1 {
		t.Fatalf("ntstore-log crash: %+v", rep)
	}
	assertAll(t, readCells(t, tm2, base, 16), 2, "ntstore log crash")
}

func TestNTStoreLogReadOwnWrites(t *testing.T) {
	tm, err := New(Config{
		Algo: OrecLazy, Medium: MediumNVM, Domain: durability.ADR,
		Threads: 1, HeapWords: 1 << 14, MaxLogEntries: 64, OrecSize: 1 << 10,
		NTStoreLog: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	th := tm.Thread(0)
	defer th.Detach()
	th.Atomic(func(tx *Tx) {
		a := tx.Alloc(8)
		tx.Store(a, 1)
		tx.Store(a, 2) // overwrite path
		if tx.Load(a) != 2 {
			t.Fatal("read-own-write broken with NT log")
		}
	})
}

func TestBackoffPolicies(t *testing.T) {
	if BackoffExponential.String() != "exponential" || BackoffNone.String() != "none" ||
		BackoffLinear.String() != "linear" || BackoffPolicy(9).String() == "" {
		t.Fatal("backoff policy names wrong")
	}
	// All policies must still commit contended work correctly.
	for _, pol := range []BackoffPolicy{BackoffExponential, BackoffNone, BackoffLinear} {
		tm, err := New(Config{
			Algo: OrecLazy, Medium: MediumNVM, Domain: durability.EADR,
			Threads: 4, HeapWords: 1 << 14, OrecSize: 1 << 10, Backoff: pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		setup := tm.Thread(0)
		var ctr memdev.Addr
		setup.Atomic(func(tx *Tx) {
			ctr = tx.Alloc(8)
			tx.Store(ctr, 0)
		})
		setup.Detach()
		ths := make([]*Thread, 4)
		for i := range ths {
			ths[i] = tm.Thread(i)
		}
		done := make(chan struct{}, 4)
		for _, th := range ths {
			go func(th *Thread) {
				defer func() { done <- struct{}{} }()
				defer th.Detach()
				for i := 0; i < 100; i++ {
					th.Atomic(func(tx *Tx) { tx.Store(ctr, tx.Load(ctr)+1) })
				}
			}(th)
		}
		for i := 0; i < 4; i++ {
			<-done
		}
		check := tm.Thread(0)
		check.Atomic(func(tx *Tx) {
			if got := tx.Load(ctr); got != 400 {
				t.Fatalf("%v: counter = %d, want 400", pol, got)
			}
		})
		check.Detach()
	}
}

func TestSmallAccessors(t *testing.T) {
	tm := MustNew(Config{
		Algo: OrecLazy, Medium: MediumNVM, Domain: durability.ADR,
		Threads: 2, HeapWords: 1 << 14, MaxLogEntries: 64, OrecSize: 1 << 10,
	})
	if tm.Orecs() == nil || tm.Orecs().Size() != 1<<10 {
		t.Fatal("Orecs accessor wrong")
	}
	th := tm.Thread(1)
	defer th.Detach()
	if th.TID() != 1 {
		t.Fatalf("TID = %d", th.TID())
	}
	th.Atomic(func(tx *Tx) {
		a := tx.AllocZeroed(20)
		for i := 0; i < 20; i++ {
			if tx.Load(a+memdev.Addr(i)) != 0 {
				t.Fatal("AllocZeroed returned non-zero payload")
			}
		}
	})
	if tm.Commits() != 1 {
		t.Fatal("commit not counted")
	}
	if (ErrLogOverflow{Entries: 3}).Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestMustNewPanicsOnIllegal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew accepted HTM under ADR")
		}
	}()
	MustNew(Config{Algo: AlgoHTM, Medium: MediumNVM, Domain: durability.ADR, Threads: 1})
}
