package memdev

import (
	"sync"
	"testing"
	"testing/quick"

	"goptm/internal/durability"
)

func newDev(t testing.TB) *Device {
	t.Helper()
	d, err := New(Config{NVMWords: 1024, DRAMWords: 512})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{NVMWords: 0, DRAMWords: 8},
		{NVMWords: 8, DRAMWords: 0},
		{NVMWords: 9, DRAMWords: 8},  // not line-aligned
		{NVMWords: 16, DRAMWords: 3}, // not line-aligned
	}
	for _, c := range cases {
		if _, err := New(c); err == nil {
			t.Errorf("New(%+v) accepted invalid config", c)
		}
	}
	if _, err := New(Config{NVMWords: 8, DRAMWords: 8}); err != nil {
		t.Errorf("minimal valid config rejected: %v", err)
	}
}

func TestRegions(t *testing.T) {
	d := newDev(t)
	if !d.IsNVM(0) || !d.IsNVM(1023) || d.IsNVM(1024) {
		t.Error("NVM range misclassified")
	}
	if !d.IsDRAM(DRAMBase) || !d.IsDRAM(DRAMBase+511) || d.IsDRAM(DRAMBase+512) {
		t.Error("DRAM range misclassified")
	}
	if d.IsDRAM(0) || d.IsNVM(DRAMBase) {
		t.Error("regions overlap")
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	d := newDev(t)
	d.Store(5, 42)
	d.Store(DRAMBase+7, 99)
	if d.Load(5) != 42 {
		t.Error("NVM load after store")
	}
	if d.Load(DRAMBase+7) != 99 {
		t.Error("DRAM load after store")
	}
	if d.Load(6) != 0 {
		t.Error("untouched word not zero")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := newDev(t)
	for _, a := range []Addr{1024, DRAMBase - 1, DRAMBase + 512} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("access to %#x did not panic", uint64(a))
				}
			}()
			d.Load(a)
		}()
	}
}

func TestStoreDirtiesLine(t *testing.T) {
	d := newDev(t)
	if d.LineState(0) != LineClean {
		t.Fatal("fresh line not clean")
	}
	d.Store(3, 1) // line 0
	if d.LineState(0) != LineDirtyCache {
		t.Fatal("store did not dirty line")
	}
	d.Store(DRAMBase, 1) // DRAM store must not touch NVM line states
	if d.LineState(0) != LineDirtyCache {
		t.Fatal("DRAM store changed NVM line state")
	}
}

func TestWPQAcceptTransitions(t *testing.T) {
	d := newDev(t)
	d.Store(8, 7) // line 1
	d.WPQAccept(1, 100)
	if d.LineState(1) != LineInWPQ {
		t.Fatal("flush did not move line to WPQ state")
	}
	if d.PendingLines() != 1 {
		t.Fatalf("pending = %d, want 1", d.PendingLines())
	}
	// A store after the flush re-dirties the line.
	d.Store(8, 9)
	if d.LineState(1) != LineDirtyCache {
		t.Fatal("store after flush did not re-dirty line")
	}
}

func TestCrashADRPersistsWPQOnly(t *testing.T) {
	d := newDev(t)
	d.Store(0, 11) // line 0: flushed
	d.WPQAccept(0, 1_000_000)
	d.Store(8, 22) // line 1: dirty only
	d.Crash(0, durability.ADR)
	if got := d.Load(0); got != 11 {
		t.Fatalf("flushed word lost under ADR: %d", got)
	}
	if got := d.Load(8); got != 0 {
		t.Fatalf("dirty unflushed word survived ADR crash: %d", got)
	}
}

func TestCrashEADRPersistsDirtyCache(t *testing.T) {
	d := newDev(t)
	d.Store(0, 11)
	d.Store(8, 22)
	d.Crash(0, durability.EADR)
	if d.Load(0) != 11 || d.Load(8) != 22 {
		t.Fatal("dirty lines lost under eADR")
	}
}

func TestCrashNoReservePersistsDrainedOnly(t *testing.T) {
	d := newDev(t)
	d.Store(0, 11)
	d.WPQAccept(0, 50) // drains at vt 50
	d.Store(8, 22)
	d.WPQAccept(1, 500) // drains at vt 500
	d.Crash(100, durability.NoReserve)
	if d.Load(0) != 11 {
		t.Fatal("drained line lost under NoReserve")
	}
	if d.Load(8) != 0 {
		t.Fatal("undrained WPQ line survived NoReserve crash")
	}
}

func TestCrashSnapshotSemantics(t *testing.T) {
	// The WPQ holds the value at flush time, not crash time: a store
	// after clwb must not be durable under ADR.
	d := newDev(t)
	d.Store(0, 1)
	d.WPQAccept(0, 10)
	d.Store(0, 2) // newer, never flushed
	d.Crash(100, durability.ADR)
	if got := d.Load(0); got != 1 {
		t.Fatalf("post-crash value = %d, want flush-time value 1", got)
	}
}

func TestCrashZeroesDRAMAndStates(t *testing.T) {
	d := newDev(t)
	d.Store(DRAMBase+3, 77)
	d.Store(0, 5)
	d.Crash(0, durability.ADR)
	if d.Load(DRAMBase+3) != 0 {
		t.Fatal("DRAM survived crash")
	}
	if d.LineState(0) != LineClean {
		t.Fatal("line states not reset after crash")
	}
	if d.PendingLines() != 0 {
		t.Fatal("pending set not cleared after crash")
	}
}

func TestQuiesceAppliesPending(t *testing.T) {
	d := newDev(t)
	d.Store(0, 123)
	d.WPQAccept(0, 1<<60) // drain far in the future
	d.DrainAll()
	d.Crash(0, durability.NoReserve) // strictest domain
	if d.Load(0) != 123 {
		t.Fatal("quiesced write lost")
	}
}

// TestReadWriteMedia: WriteMedia supersedes pending flushes and
// leaves every line it covers Clean, visible in both images; ReadMedia
// returns what MediaLoad returns word for word; a range that is not
// whole NVM lines (WriteMedia) or not inside NVM (both) panics.
func TestReadWriteMedia(t *testing.T) {
	d := newDev(t)
	p := make([]uint64, 2*WordsPerLine)
	for i := range p {
		p[i] = uint64(i + 1)
	}
	d.Store(16, 999) // line 2 dirty, then superseded by the write
	d.WPQAccept(2, 10)
	d.Store(24, 998) // line 3 dirty, flushed and fenced
	d.WPQAccept(3, 20)
	d.WPQMarkOrdered([]uint64{3})
	d.Store(LineAddr(9), 9) // line 9 pending, outside the range
	d.WPQAccept(9, 30)
	d.WriteMedia(LineAddr(2), p)
	for _, ln := range []uint64{2, 3} {
		if d.LineState(ln) != LineClean {
			t.Fatalf("write did not clean line %d", ln)
		}
	}
	if d.PendingLines() != 1 {
		t.Fatalf("pending lines = %d, want only line 9's", d.PendingLines())
	}
	for i := range p {
		if d.Load(Addr(16+i)) != uint64(i+1) {
			t.Fatal("write not visible in volatile image")
		}
	}
	d.Crash(0, durability.NoReserve)
	if d.Load(16) != 1 || d.Load(31) != 16 {
		t.Fatal("media write lost on crash")
	}

	got := make([]uint64, d.NVMWords())
	d.ReadMedia(0, got)
	for a, v := range got {
		if want := d.MediaLoad(Addr(a)); v != want {
			t.Fatalf("ReadMedia word %d = %d, MediaLoad = %d", a, v, want)
		}
	}
	d.ReadMedia(Addr(d.NVMWords()), nil) // an empty range at the end is no error

	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	nvm := Addr(d.NVMWords())
	panics("ReadMedia past NVM", func() { d.ReadMedia(nvm-4, make([]uint64, 8)) })
	panics("ReadMedia of DRAM", func() { d.ReadMedia(DRAMBase, make([]uint64, 1)) })
	panics("WriteMedia past NVM", func() { d.WriteMedia(nvm-8, make([]uint64, 16)) })
	panics("WriteMedia unaligned start", func() { d.WriteMedia(4, make([]uint64, 8)) })
	panics("WriteMedia partial line", func() { d.WriteMedia(8, make([]uint64, 12)) })
	panics("WriteMedia of DRAM", func() { d.WriteMedia(DRAMBase, make([]uint64, 8)) })
}

func TestMediaLoad(t *testing.T) {
	d := newDev(t)
	d.Store(0, 42)
	if d.MediaLoad(0) != 0 {
		t.Fatal("unflushed store visible in media")
	}
	d.WPQAccept(0, 0)
	d.DrainAll()
	if d.MediaLoad(0) != 42 {
		t.Fatal("quiesced store not in media")
	}
}

func TestStatsCount(t *testing.T) {
	d := newDev(t)
	d.Store(0, 1)
	d.Store(8, 1)
	d.Store(DRAMBase, 1) // not counted
	d.WPQAccept(0, 0)
	k := d.Counters()
	if k.NVMStores != 2 || k.Flushes != 1 {
		t.Fatalf("counters = %+v, want 2 stores, 1 flush", k)
	}
}

func TestConcurrentStoresDistinctWords(t *testing.T) {
	d := MustNew(Config{NVMWords: 8192, DRAMWords: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1024; i++ {
				a := Addr(g*1024 + i)
				d.Store(a, uint64(g*1024+i))
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 8192; i++ {
		if d.Load(Addr(i)) != uint64(i) {
			t.Fatalf("word %d corrupted", i)
		}
	}
}

func TestCrashPrefixProperty(t *testing.T) {
	// Property: under ADR, after arbitrary store/flush sequences, every
	// word's media value is the value it had at its last flush (or zero
	// if never flushed).
	f := func(ops []uint16) bool {
		d := MustNew(Config{NVMWords: 64, DRAMWords: 8})
		lastFlushed := make(map[Addr]uint64)
		shadow := make(map[Addr]uint64)
		val := uint64(1)
		for _, op := range ops {
			a := Addr(op % 64)
			if op%3 == 0 {
				ln := LineOf(a)
				d.WPQAccept(ln, int64(op))
				base := Addr(ln << LineShift)
				for w := Addr(0); w < WordsPerLine; w++ {
					lastFlushed[base+w] = shadow[base+w]
				}
			} else {
				d.Store(a, val)
				shadow[a] = val
				val++
			}
		}
		d.Crash(1<<60, durability.ADR)
		for a := Addr(0); a < 64; a++ {
			if d.Load(a) != lastFlushed[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCrashEADRNoLossProperty(t *testing.T) {
	// Property: under eADR every executed store is durable at crash.
	f := func(ops []uint16) bool {
		d := MustNew(Config{NVMWords: 64, DRAMWords: 8})
		shadow := make(map[Addr]uint64)
		val := uint64(1)
		for _, op := range ops {
			a := Addr(op % 64)
			d.Store(a, val)
			shadow[a] = val
			val++
		}
		d.Crash(0, durability.EADR)
		for a, v := range shadow {
			if d.Load(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMustNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew accepted invalid config")
		}
	}()
	MustNew(Config{NVMWords: 0, DRAMWords: 0})
}

func TestLineAddrRoundTrip(t *testing.T) {
	for _, a := range []Addr{0, 7, 8, 63, 64, 1000} {
		ln := LineOf(a)
		base := LineAddr(ln)
		if base > a || a-base >= WordsPerLine {
			t.Fatalf("LineAddr(LineOf(%d)) = %d", a, base)
		}
	}
}

func TestCounters(t *testing.T) {
	d := newDev(t)
	d.Store(0, 1)
	d.Store(8, 2)
	d.Load(0)
	d.Load(8)
	d.Load(16)
	d.Store(DRAMBase, 9) // DRAM traffic is not NVM traffic
	d.Load(DRAMBase)
	d.WPQAccept(0, 0)
	k := d.Counters()
	if k.NVMStores != 2 || k.NVMLoads != 3 || k.Flushes != 1 {
		t.Fatalf("counters = %+v, want stores 2, loads 3, flushes 1", k)
	}
}

func TestDrainAllAppliesEachLiveLineOnce(t *testing.T) {
	d := newDev(t)
	// Three live lines with out-of-order drain times, line 5 fenced and
	// then superseded: its fenced payload is committed to media at the
	// re-flush, and only the newer payload is still pending.
	d.Store(LineAddr(3), 33)
	d.WPQAccept(3, 900)
	d.Store(LineAddr(1), 11)
	d.WPQAccept(1, 500)
	d.Store(LineAddr(5), 1)
	d.WPQAccept(5, 100)
	d.WPQMarkOrdered([]uint64{5})
	d.Store(LineAddr(5), 55)
	d.WPQAccept(5, 200)
	if got := d.MediaLoad(LineAddr(5)); got != 1 {
		t.Fatalf("superseded fenced payload not on media: %d", got)
	}
	// A writeback retires line 7's pending entry, leaving a dead slot
	// the drain must skip.
	d.Store(LineAddr(7), 77)
	d.WPQAccept(7, 300)
	d.WriteMedia(LineAddr(7), []uint64{7, 0, 0, 0, 0, 0, 0, 0})
	n, maxVT := d.DrainAll()
	if n != 3 || maxVT != 900 {
		t.Fatalf("DrainAll = (%d, %d), want (3, 900)", n, maxVT)
	}
	for ln, v := range map[uint64]uint64{1: 11, 3: 33, 5: 55, 7: 7} {
		if got := d.MediaLoad(LineAddr(ln)); got != v {
			t.Fatalf("media line %d = %d, want %d", ln, got, v)
		}
	}
	if d.PendingLines() != 0 {
		t.Fatalf("pending not cleared: %d", d.PendingLines())
	}
	// Idempotent on an empty pending set.
	if n, _ := d.DrainAll(); n != 0 {
		t.Fatalf("second drain applied %d entries", n)
	}
}

func TestDrainAllAppliesPendingInOrder(t *testing.T) {
	d := newDev(t)
	// Three lines accepted with out-of-order drain times; after DrainAll
	// media must hold each line's accepted snapshot, whatever the order
	// the entries were applied in.
	d.Store(LineAddr(3), 33)
	d.WPQAccept(3, 900)
	d.Store(LineAddr(1), 11)
	d.WPQAccept(1, 500)
	d.Store(LineAddr(2), 22)
	d.WPQAccept(2, 500)
	n, maxVT := d.DrainAll()
	if n != 3 || maxVT != 900 {
		t.Fatalf("DrainAll = (%d, %d), want (3, 900)", n, maxVT)
	}
	for ln, v := range map[uint64]uint64{1: 11, 2: 22, 3: 33} {
		if got := d.MediaLoad(LineAddr(ln)); got != v {
			t.Fatalf("media line %d = %d, want %d", ln, got, v)
		}
	}
	if d.PendingLines() != 0 {
		t.Fatalf("pending not cleared: %d", d.PendingLines())
	}
	if n, _ := d.DrainAll(); n != 0 {
		t.Fatalf("second DrainAll applied %d entries", n)
	}
}

func TestMediaObserverSeesSupersedeCommit(t *testing.T) {
	d := newDev(t)
	d.Store(LineAddr(5), 1)
	d.WPQAccept(5, 100)
	d.WPQMarkOrdered([]uint64{5})
	// Re-flushing an ordered line commits the fenced snapshot to media
	// immediately; the drain then sees only the newer payload.
	d.Store(LineAddr(5), 2)
	d.WPQAccept(5, 200)
	if got := d.MediaLoad(LineAddr(5)); got != 1 {
		t.Fatalf("media line 5 = %d, want the fenced payload 1", got)
	}
	if n, _ := d.DrainAll(); n != 1 {
		t.Fatalf("drain applied %d entries, want only the newer payload", n)
	}
	if v := d.MediaLoad(LineAddr(5)); v != 2 {
		t.Fatalf("media line 5 = %d after drain, want 2", v)
	}
	// WriteMedia writes media directly.
	p := make([]uint64, WordsPerLine)
	p[0] = 7
	d.WriteMedia(LineAddr(6), p)
	if v := d.MediaLoad(LineAddr(6)); v != 7 {
		t.Fatalf("media line 6 = %d after WriteMedia, want 7", v)
	}
}
