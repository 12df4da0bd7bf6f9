package metrics

import "testing"

// TestNilRegistry pins the nil-safe discipline: every method must be
// callable on a nil *Registry (the disabled configuration).
func TestNilRegistry(t *testing.T) {
	var m *Registry
	m.Add(CtrCommits, 1)
	m.MediaWriteLine(3)
	m.MediaReadLine(3)
	m.MediaBulkWrite(8)
	m.MediaBulkRead(8)
	if got := m.Get(CtrCommits); got != 0 {
		t.Fatalf("nil registry Get = %d, want 0", got)
	}
}

func TestCounterNames(t *testing.T) {
	for c := Counter(0); c < NumCounters; c++ {
		if c.String() == "" || c.String() == "counter?" {
			t.Fatalf("counter %d has no name", c)
		}
	}
	if Counter(NumCounters).String() != "counter?" {
		t.Fatalf("out-of-range counter should render counter?")
	}
}

// TestXPBufferCoalescing checks the media model's core property: lines
// within one open XPLine coalesce, lines beyond the 16-way capacity
// evict LRU-first.
func TestXPBufferCoalescing(t *testing.T) {
	m := New(Config{Serial: true})

	// Four lines of one XPLine: 1 media write + 3 XPBuffer hits.
	for line := uint64(0); line < LinesPerXP; line++ {
		m.MediaWriteLine(line)
	}
	if got := m.Get(CtrMediaWriteXPLines); got != 1 {
		t.Fatalf("media writes = %d, want 1", got)
	}
	if got := m.Get(CtrXPBufWriteHits); got != 3 {
		t.Fatalf("xpbuf hits = %d, want 3", got)
	}

	// Touch 16 more distinct XPLines: XPLine 0 is now LRU and evicted,
	// so revisiting line 0 misses again.
	for xp := uint64(1); xp <= XPBufferWays; xp++ {
		m.MediaWriteLine(xp * LinesPerXP)
	}
	before := m.Get(CtrMediaWriteXPLines)
	m.MediaWriteLine(0)
	if got := m.Get(CtrMediaWriteXPLines); got != before+1 {
		t.Fatalf("evicted XPLine did not cost a media write: %d -> %d", before, got)
	}
}

// TestXPBufferMoveToFront checks that a hit refreshes recency: the hit
// entry must survive a fill that evicts everything older.
func TestXPBufferMoveToFront(t *testing.T) {
	m := New(Config{Serial: true})
	for xp := uint64(0); xp < XPBufferWays; xp++ {
		m.MediaWriteLine(xp * LinesPerXP) // fill: 0 is LRU-most after this
	}
	m.MediaWriteLine(0) // hit XPLine 0 -> most recent
	// 15 new XPLines evict everything except the freshest entry (0).
	for xp := uint64(100); xp < 100+XPBufferWays-1; xp++ {
		m.MediaWriteLine(xp * LinesPerXP)
	}
	before := m.Get(CtrXPBufWriteHits)
	m.MediaWriteLine(0)
	if got := m.Get(CtrXPBufWriteHits); got != before+1 {
		t.Fatalf("refreshed XPLine was evicted; hits %d -> %d", before, got)
	}
}

// TestReadWriteBuffersIndependent checks reads and writes probe
// separate XPBuffers.
func TestReadWriteBuffersIndependent(t *testing.T) {
	m := New(Config{Serial: true})
	m.MediaWriteLine(0)
	m.MediaReadLine(0)
	if got := m.Get(CtrMediaReadXPLines); got != 1 {
		t.Fatalf("read after write coalesced across buffers: media reads = %d, want 1", got)
	}
}

func TestBulkRounding(t *testing.T) {
	m := New(Config{Serial: true})
	m.MediaBulkWrite(5) // 5 lines -> ceil(5/4) = 2 XPLines
	if got := m.Get(CtrMediaWriteXPLines); got != 2 {
		t.Fatalf("bulk write XPLines = %d, want 2", got)
	}
	if got := m.Get(CtrMediaBulkWriteLines); got != 5 {
		t.Fatalf("bulk write lines = %d, want 5", got)
	}
	m.MediaBulkRead(4)
	if got := m.Get(CtrMediaReadXPLines); got != 1 {
		t.Fatalf("bulk read XPLines = %d, want 1", got)
	}
}

// TestConcurrentRegistry exercises the locked (non-serial) paths under
// the race detector.
func TestConcurrentRegistry(t *testing.T) {
	m := New(Config{})
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				line := uint64(w*1000 + i)
				m.MediaWriteLine(line)
				m.MediaReadLine(line)
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	total := m.Get(CtrMediaWriteXPLines) + m.Get(CtrXPBufWriteHits)
	if total != 4000 {
		t.Fatalf("write probes = %d, want 4000", total)
	}
}

func TestFillRegistryAmplification(t *testing.T) {
	m := New(Config{Serial: true})
	// 64 stores (512 B requested) that land in 8 distinct XPLines
	// (2048 B media): write amp 4.0.
	for i := 0; i < 64; i++ {
		m.MediaWriteLine(uint64(i) * LinesPerXP / 2) // 2 lines per XPLine
	}
	var s Snapshot
	s.NVMStores = 64
	s.NVMLoads = 0
	s.FillRegistry(m)
	wantXP := m.Get(CtrMediaWriteXPLines)
	wantAmp := float64(wantXP*XPLineBytes) / float64(64*WordBytes)
	if s.WriteAmp != wantAmp {
		t.Fatalf("write amp = %v, want %v", s.WriteAmp, wantAmp)
	}
	if s.ReadAmp != 0 {
		t.Fatalf("read amp = %v with no loads, want 0", s.ReadAmp)
	}
}
