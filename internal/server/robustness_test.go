package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"goptm/internal/core"
	"goptm/internal/durability"
)

// durableRound is one life of the durable store at path: open it
// (replaying whatever journal the previous life left) and check that
// every promise in want survived, then acknowledge n sets of keys
// [from, from+n), an incr of key from and a delete of key from+1 —
// every record kind — through an executor built with no barrier
// setting (a journaled store backs every response with the journal by
// itself), recording each promise in want. It stops without
// Crash/SaveImage, the moral equivalent of a SIGKILL: durability must
// come from the journal alone.
func durableRound(t *testing.T, path string, cfg StoreConfig, ring *FlightRecorder, from, n int, want map[string]string) *Store {
	t.Helper()
	st := reopenDurable(t, path, cfg, want)
	exec := NewExecutor(st, ExecConfig{DeadlineNS: -1, Flight: ring})
	ack := func(req *Request) *Request {
		t.Helper()
		if r := submit(t, exec, req); r.Err != nil || (r.Op != OpSet && !r.Found) {
			t.Fatalf("%v %s: found %v, err %v", r.Op, r.Key, r.Found, r.Err)
		}
		return req
	}
	key := func(i int) string { return fmt.Sprintf("wal-key-%d", i) }
	for i := from; i < from+n; i++ {
		ack(&Request{Op: OpSet, Key: []byte(key(i)), Value: []byte(strconv.Itoa(i))})
		want[key(i)] = strconv.Itoa(i)
	}
	r := ack(&Request{Op: OpIncr, Key: []byte(key(from)), Delta: 1000})
	want[key(from)] = strconv.FormatUint(r.NewVal, 10)
	ack(&Request{Op: OpDelete, Key: []byte(key(from + 1))})
	want[key(from+1)] = ""
	// Stop the shard workers, so the test doesn't leak goroutines.
	exec.Drain()
	return st
}

// reopenDurable opens the durable store at path, as a restart after a
// process kill would, and checks every acked promise in want: a value,
// or "" for a key that must be absent. A non-empty want demands that a
// journal was replayed.
func reopenDurable(t *testing.T, path string, cfg StoreConfig, want map[string]string) *Store {
	t.Helper()
	st, err := OpenDurable(path, cfg)
	if err != nil {
		t.Fatalf("open durable store: %v", err)
	}
	if len(want) > 0 && st.WALBatches == 0 {
		t.Fatal("reopen replayed no journal batches")
	}
	checkKeys(t, st, want)
	return st
}

// checkKeys checks st's table against want: a value, or "" for a key
// that must be absent.
func checkKeys(t *testing.T, st *Store, want map[string]string) {
	t.Helper()
	th := st.TM().Thread(0)
	defer th.Detach()
	kv := st.KV()
	th.Atomic(func(tx *core.Tx) {
		for k, w := range want {
			if v, _, ok := kv.Get(tx, []byte(k)); ok != (w != "") || string(v) != w {
				t.Fatalf("acked %s = %q lost across process kill: have %q, %v", k, w, v, ok)
			}
		}
	})
}

// TestDurableAckSurvivesProcessKill: in every durability domain, under
// redo and undo, every acked set, incr and delete survives two process
// kills in a row — the second after a life that replayed the first
// kill's journal and appended to it — and then a clean save.
func TestDurableAckSurvivesProcessKill(t *testing.T) {
	for _, algo := range []core.Algo{core.OrecLazy, core.OrecEager} {
		t.Run(algo.String(), func(t *testing.T) {
			for _, dom := range []durability.Domain{durability.ADR, durability.EADR, durability.PDRAM, durability.PDRAMLite} {
				t.Run(dom.String(), func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "kv.img")
					const n = 30
					want := map[string]string{}
					durableRound(t, path, StoreConfig{Algo: algo, Domain: dom, Shards: 2, Heap: 1 << 18}, nil, 0, n, want)
					if _, err := os.Stat(WALPath(path)); err != nil {
						t.Fatalf("no journal after durable writes: %v", err)
					}
					durableRound(t, path, StoreConfig{}, nil, n, n, want)
					st := reopenDurable(t, path, StoreConfig{}, want)
					if c := st.Config(); c.Algo != algo || c.Domain != dom {
						t.Fatalf("reopened as %v/%v, want %v/%v", c.Algo, c.Domain, algo, dom)
					}

					// Clean shutdown: crash, save, finish. The journal is
					// consumed into the image and removed; what remains
					// reopens without it.
					st.Crash(0)
					if err := st.SaveImage(path); err != nil {
						t.Fatal(err)
					}
					st.FinishJournal()
					if _, err := os.Stat(WALPath(path)); !os.IsNotExist(err) {
						t.Fatalf("journal still present after FinishJournal: %v", err)
					}
					st, err := OpenDurable(path, StoreConfig{})
					if err != nil {
						t.Fatal(err)
					}
					if st.WALBatches != 0 {
						t.Fatalf("replayed %d journal batches after FinishJournal", st.WALBatches)
					}
					checkKeys(t, st, want)
				})
			}
		})
	}
}

// TestOpenDurableServesCacheDomains: an image saved by a store with no
// journal, under a domain whose committed lines persist above the WPQ,
// reopens durably in its own domain, and the writes acked after that
// survive two process kills.
func TestOpenDurableServesCacheDomains(t *testing.T) {
	for _, d := range []durability.Domain{durability.EADR, durability.PDRAM, durability.PDRAMLite} {
		t.Run(d.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "kv.img")
			st, err := Open(StoreConfig{Domain: d, Shards: 1, Heap: 1 << 18})
			if err != nil {
				t.Fatal(err)
			}
			st.Crash(0)
			if err := st.SaveImage(path); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(WALPath(path)); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("a store with no journal left one: %v", err)
			}

			const n = 10
			want := map[string]string{}
			st = durableRound(t, path, StoreConfig{}, nil, 0, n, want)
			if c := st.Config(); c.Domain != d {
				t.Fatalf("%v image reopened durably as %v", d, c.Domain)
			}
			durableRound(t, path, StoreConfig{}, nil, n, n, want)
			reopenDurable(t, path, StoreConfig{}, want)
		})
	}
}

// TestBarrierFollowsJournal: the executor derives the durable-ack
// barrier from the store; its config has no barrier setting. A
// journaled store runs the barrier once per write batch, never drains
// the WPQ on the ack path, and its acked keys survive a kill with no
// image save; a store with no journal runs none, so every flight
// record's drain and journal boundaries sit on its transaction's
// return.
func TestBarrierFollowsJournal(t *testing.T) {
	const n = 20
	t.Run("journaled", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "kv.img")
		ring := NewFlightRecorder(64)
		want := map[string]string{}
		st := durableRound(t, path, StoreConfig{Shards: 1, Heap: 1 << 18}, ring, 0, n, want)
		h := st.JournalFlushStats()
		if got := h.Count(); got != n+2 {
			t.Fatalf("%d journal flushes for %d acked writes", got, n+2)
		}
		for _, r := range ring.Snapshot() {
			if r.TS[5] != r.TS[4] {
				t.Fatalf("record %d: ran %d, drained %d: the ack path drained the WPQ", r.Seq, r.TS[4], r.TS[5])
			}
		}
		reopenDurable(t, path, StoreConfig{}, want)
	})
	t.Run("no-journal", func(t *testing.T) {
		st := testStore(t, StoreConfig{Shards: 1})
		ring := NewFlightRecorder(64)
		exec := NewExecutor(st, ExecConfig{DeadlineNS: -1, Flight: ring})
		for i := 0; i < n; i++ {
			submit(t, exec, &Request{Op: OpSet, Key: fmt.Appendf(nil, "k%d", i), Value: []byte("v")})
		}
		exec.Drain()
		records := ring.Snapshot()
		if len(records) != n {
			t.Fatalf("%d flight records for %d sets", len(records), n)
		}
		for _, r := range records {
			if r.Shed || r.Err || r.TS[5] != r.TS[4] || r.TS[6] != r.TS[4] {
				t.Fatalf("record %d: ran %d, drained %d, flushed %d (shed %v, err %v): a barrier ran with no journal",
					r.Seq, r.TS[4], r.TS[5], r.TS[6], r.Shed, r.Err)
			}
		}
	})
}

// TestFailedBarrierFailsStop: a batch whose journal flush fails has
// already committed in simulated memory, yet a process kill would lose
// it. The executor must refuse every member of that batch and, fail-
// stopped, every request after it without running it — so no get can
// return a write the journal never took, on the executor or the wire.
func TestFailedBarrierFailsStop(t *testing.T) {
	st, err := OpenDurable(filepath.Join(t.TempDir(), "kv.img"), StoreConfig{Shards: 1, Heap: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(st, ExecConfig{DeadlineNS: -1})
	if r := submit(t, exec, &Request{Op: OpSet, Key: []byte("acked"), Value: []byte("v1")}); r.Err != nil {
		t.Fatalf("set before the failure: %v", r.Err)
	}
	st.wal.f.Close() // every later journal write fails
	if r := submit(t, exec, &Request{Op: OpSet, Key: []byte("lost"), Value: []byte("v2")}); !errors.Is(r.Err, ErrDurable) {
		t.Fatalf("set behind a failed flush: err = %v, want ErrDurable", r.Err)
	}
	for _, key := range []string{"lost", "acked"} {
		if r := submit(t, exec, &Request{Op: OpGet, Key: []byte(key)}); r.Found || !errors.Is(r.Err, ErrDurable) {
			t.Fatalf("get %s after a failed flush: found %v (%q), err %v; want ErrDurable", key, r.Found, r.Val, r.Err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(st, exec, ln)
	defer srv.Shutdown()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "get lost\r\nset k 0 0 1\r\nx\r\n")
	r := bufio.NewReader(conn)
	expectLine(t, r, "SERVER_ERROR persistence failure")
	expectLine(t, r, "SERVER_ERROR persistence failure")
}

func TestTornJournalTailDroppedWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kv.img")
	durableRound(t, path, StoreConfig{Shards: 2, Heap: 1 << 18}, nil, 0, 10, map[string]string{})

	// Simulate a kill mid-append: chop the journal mid-batch and tack
	// garbage on. Replay must apply the valid prefix and drop the tail
	// atomically — reopen still succeeds and recovery still runs.
	wal := WALPath(path)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, append(data[:len(data)-13], 0xde, 0xad), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenDurable(path, StoreConfig{})
	if err != nil {
		t.Fatalf("reopen with torn journal tail: %v", err)
	}
	th := st.TM().Thread(0)
	defer th.Detach()
	kv := st.KV()
	th.Atomic(func(tx *core.Tx) {
		// The last batch was torn; earlier acked keys must still be there.
		if _, _, ok := kv.Get(tx, []byte("wal-key-0")); !ok {
			t.Fatal("prefix of torn journal not replayed")
		}
	})
}

func TestStaleJournalIgnoredAfterSave(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kv.img")
	durableRound(t, path, StoreConfig{Shards: 2, Heap: 1 << 18}, nil, 0, 5, map[string]string{})

	// Reopen (journal replayed), save a new image — but "fail" to
	// remove the journal, as a kill between SaveImage and FinishJournal
	// would. The save bumped the generation, so the next open must
	// recognize the file as stale and replay nothing from it.
	st, err := OpenDurable(path, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st.Crash(0)
	if err := st.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	// Journal deliberately left behind.
	st2, err := OpenDurable(path, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.WALBatches != 0 {
		t.Fatalf("stale journal replayed %d batches over a newer image", st2.WALBatches)
	}
	th := st2.TM().Thread(0)
	defer th.Detach()
	kv := st2.KV()
	th.Atomic(func(tx *core.Tx) {
		if _, _, ok := kv.Get(tx, []byte("wal-key-4")); !ok {
			t.Fatal("key lost: it was consumed into the image before the journal went stale")
		}
	})
}

func TestCorruptImageRejectedTyped(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kv.img")
	st := testStore(t, StoreConfig{Shards: 1})
	st.Bus().Quiesce()
	if err := st.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// zeroPageAt is the file offset of the body's first all-zero page.
	body := 12 + int(binary.LittleEndian.Uint32(good[8:12]))
	zeroPageAt := -1
	for p := body; p+imagePage <= len(good); p += imagePage {
		if bytes.Equal(good[p:p+imagePage], zeroPage[:]) {
			zeroPageAt = p
			break
		}
	}
	if zeroPageAt < 0 {
		t.Fatal("image body has no all-zero page")
	}

	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"bit flip in body", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x01
			return c
		}},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-4096] }},
		{"truncated header", func(b []byte) []byte { return b[:10] }},
		{"wrong magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			copy(c, "NOTIMAGE")
			return c
		}},
		{"garbage header json", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[12] = '!' // clobber the JSON opening brace
			return c
		}},
		// The page the checksum's zero-page shortcut skips: one set
		// byte must still be caught.
		{"byte set in zero page", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[zeroPageAt+imagePage/2] = 0x01
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := filepath.Join(dir, "bad.img")
			if err := os.WriteFile(bad, tc.mut(good), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenDurable(bad, StoreConfig{}); !errors.Is(err, ErrCorruptImage) {
				t.Fatalf("OpenDurable(%s) = %v, want ErrCorruptImage", tc.name, err)
			}
			// Refused, never silently reformatted: the file is as it
			// was, and no journal was opened beside it.
			if got, err := os.ReadFile(bad); err != nil || !bytes.Equal(got, tc.mut(good)) {
				t.Fatalf("refused image %s was modified: %v", tc.name, err)
			}
			if _, err := os.Stat(WALPath(bad)); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("refused image %s got a journal: %v", tc.name, err)
			}
		})
	}

	// The untouched image still opens.
	if _, err := OpenDurable(path, StoreConfig{}); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
}

// TestUnexaminablePathIsNotAFreshStart: only "no such file" may lead to
// formatting. A path whose stat fails any other way (here ENOTDIR: a
// regular file stands where a directory should) must be an error, with
// nothing created — not a fresh, un-recovered store served over an
// image that was never looked at.
func TestUnexaminablePathIsNotAFreshStart(t *testing.T) {
	t.Run("OpenDurable", func(t *testing.T) {
		dir := t.TempDir()
		file := filepath.Join(dir, "plain")
		if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := StoreConfig{Shards: 1, Heap: 1 << 18}
		bad := filepath.Join(file, "kv.img")
		if _, err := OpenDurable(bad, cfg); err == nil || errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("OpenDurable(%s) error = %v; want a stat error", bad, err)
		}
		if got, err := os.ReadDir(dir); err != nil || len(got) != 1 {
			t.Fatalf("failed open left files behind: %v, %v", got, err)
		}

		absent := filepath.Join(t.TempDir(), "kv.img")
		st, err := OpenDurable(absent, cfg)
		if err != nil || st.Recovered {
			t.Fatalf("OpenDurable on an absent path: %v; want a fresh store", err)
		}
	})
}

// TestOldJournalFormatRefused: a journal in the line-record format
// (magic PTMKVWL1) holds acked writes this binary cannot replay.
// OpenDurable must refuse it, naming the file, and leave its bytes
// untouched — never truncate it as a stale or torn journal.
func TestOldJournalFormatRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.img")
	reopenDurable(t, path, StoreConfig{Shards: 1, Heap: 1 << 18}, nil).FinishJournal()
	old := append([]byte("PTMKVWL1"), bytes.Repeat([]byte{1}, 8+16+72)...)
	if err := os.WriteFile(WALPath(path), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(path, StoreConfig{}); err == nil || !strings.Contains(err.Error(), WALPath(path)) {
		t.Fatalf("OpenDurable over a PTMKVWL1 journal: err = %v; want a refusal naming the file", err)
	}
	if got, err := os.ReadFile(WALPath(path)); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("refused journal was modified: %v", err)
	}
}

// TestMalformedJournalRecordRefused: a batch whose checksum holds but
// whose records do not parse, or name no write, was not written by
// this grammar. Reopening must fail rather than replay a guess.
func TestMalformedJournalRecordRefused(t *testing.T) {
	for name, body := range map[string][]byte{
		"key overruns batch": {byte(OpSet), 5, 'k'},
		"unknown op":         {9, 1, 'k', 0, 0},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "kv.img")
			durableRound(t, path, StoreConfig{Shards: 1, Heap: 1 << 18}, nil, 0, 2, map[string]string{})
			data, err := os.ReadFile(WALPath(path))
			if err != nil {
				t.Fatal(err)
			}
			gen := binary.LittleEndian.Uint64(data[8:16])
			data = binary.LittleEndian.AppendUint64(data, uint64(len(body)))
			data = append(binary.LittleEndian.AppendUint64(data, batchSum(gen, body)), body...)
			if err := os.WriteFile(WALPath(path), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenDurable(path, StoreConfig{}); err == nil {
				t.Fatal("reopen replayed a malformed journal record")
			}
		})
	}
}

// TestPendingLinesBounded: with no drain on the ack path, memdev's
// pending set holds one entry per distinct line flushed since the last
// power failure. Overwriting a fixed keyspace round after round on a
// journaled store touches the same lines each round, so the set stops
// growing after the first overwrite round.
func TestPendingLinesBounded(t *testing.T) {
	st, err := OpenDurable(filepath.Join(t.TempDir(), "kv.img"), StoreConfig{Shards: 1, Heap: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(st, ExecConfig{DeadlineNS: -1})
	defer exec.Drain()
	dev := st.Bus().Device()
	var first int
	for round := 0; round <= 5; round++ {
		for k := 0; k < 256; k++ {
			val := fmt.Appendf(nil, "%08d-%055d", round, k) // 64 bytes: overwritten in place
			if r := submit(t, exec, &Request{Op: OpSet, Key: fmt.Appendf(nil, "k%d", k), Value: val}); r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		switch n := dev.PendingLines(); round {
		case 0: // inserts
		case 1:
			first = n
		default:
			if n > first {
				t.Fatalf("round %d: %d pending lines, %d after the first overwrite round", round, n, first)
			}
		}
	}
}

// startTestServer spins a full TCP server and returns its address and
// a shutdown func.
func startTestServer(t *testing.T) (addr string, shutdown func()) {
	t.Helper()
	st := testStore(t, StoreConfig{Shards: 2})
	exec := NewExecutor(st, ExecConfig{DeadlineNS: -1, IdleSleep: 20 * time.Microsecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(st, exec, ln)
	return srv.Addr().String(), srv.Shutdown
}

// probe performs a full healthy round trip on a fresh connection —
// the "server did not crash and still parses its stream" check.
func probe(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("probe dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := fmt.Fprintf(conn, "set probe 0 0 2\r\nok\r\nget probe\r\n"); err != nil {
		t.Fatalf("probe write: %v", err)
	}
	r := bufio.NewReader(conn)
	for _, want := range []string{"STORED", "VALUE probe 0 2", "ok", "END"} {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("probe read (want %q): %v", want, err)
		}
		if got := strings.TrimRight(line, "\r\n"); got != want {
			t.Fatalf("probe got %q, want %q", got, want)
		}
	}
}

// TestHalfWrittenSetBody is the satellite regression: a client that
// dies mid-payload must not leave anything submitted — the key stays
// absent and the server keeps serving.
func TestHalfWrittenSetBody(t *testing.T) {
	addr, shutdown := startTestServer(t)
	defer shutdown()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Declare 10 bytes, send 3, hang up.
	if _, err := fmt.Fprintf(conn, "set half 0 0 10\r\nabc"); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// Also die exactly at the payload boundary with the CRLF missing.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(conn2, "set half2 0 0 4\r\nwxyz"); err != nil {
		t.Fatal(err)
	}
	conn2.Close()

	// Give the server a moment to process the disconnects, then verify
	// neither key exists and the server is healthy.
	time.Sleep(50 * time.Millisecond)
	probe(t, addr)
	conn3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	conn3.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn3, "get half half2\r\n")
	r := bufio.NewReader(conn3)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimRight(line, "\r\n"); got != "END" {
		t.Fatalf("half-written set left data behind: %q", got)
	}
}

// TestMalformedProtocolInput feeds truncated commands, hostile
// lengths, bad UTF-8, and pipelined garbage at the TCP front end. The
// server must answer in-band (ERROR / CLIENT_ERROR / SERVER_ERROR) or
// drop the connection cleanly — and must never die: every case is
// followed by a healthy probe on a fresh connection.
func TestMalformedProtocolInput(t *testing.T) {
	addr, shutdown := startTestServer(t)
	defer shutdown()

	// The longest legal command line: a multi-get of 32 maximum-length
	// keys plus one that pads the line, CRLF included, to exactly
	// maxLineBytes. The first key is stored, the rest miss.
	longKey := fmt.Sprintf("%0250d", 0)
	longGet := "get"
	for i := 0; i < 32; i++ {
		longGet += fmt.Sprintf(" %0250d", i)
	}
	longGet += " " + strings.Repeat("p", maxLineBytes-len(longGet)-3) + "\r\n"

	cases := []struct {
		name   string
		send   string
		want   []string // response lines expected in order; nil = none
		fatal  bool     // connection is expected to drop
		closed bool     // ... by the server: EOF follows the last reply
	}{
		{name: "whitespace only line", send: "   \r\n", want: []string{"ERROR"}},
		{name: "empty command", send: "\r\n", want: nil},
		{name: "bare lf", send: "\n", want: nil},
		{name: "truncated set", send: "set\r\n", want: []string{"ERROR"}},
		{name: "set missing length", send: "set k 0 0\r\n", want: []string{"ERROR"}},
		{name: "set non-numeric flags", send: "set k x 0 3\r\n", want: []string{"CLIENT_ERROR bad command line format"}},
		{name: "set negative length", send: "set k 0 0 -5\r\n", want: []string{"CLIENT_ERROR bad command line format"}},
		{name: "set overflowing length", send: "set k 0 0 99999999999999999999\r\n", want: []string{"CLIENT_ERROR bad command line format"}},
		{
			// A hostile declared length must be answered (and never
			// allocated); the client hangs up instead of streaming 1 TiB.
			name:  "set hostile huge length",
			send:  "set k 0 0 1099511627776\r\n",
			want:  []string{"SERVER_ERROR object too large for cache"},
			fatal: true,
		},
		{name: "set payload missing crlf", send: "set k 0 0 3\r\nabcde\r\n", want: []string{"CLIENT_ERROR bad data chunk"}},
		{name: "get no key", send: "get\r\n", want: []string{"ERROR"}},
		{name: "incr no delta", send: "incr k\r\n", want: []string{"ERROR"}},
		{name: "incr bad delta", send: "incr k abc\r\n", want: []string{"CLIENT_ERROR invalid numeric delta argument"}},
		{name: "delete no key", send: "delete\r\n", want: []string{"ERROR"}},
		{name: "binary garbage", send: "\x00\x01\x02\x03\r\n", want: []string{"ERROR"}},
		{name: "bad utf8 command", send: "\xff\xfe\xfd\r\n", want: []string{"ERROR"}},
		{
			// Bad UTF-8 in a *key* is legal — keys are byte strings.
			name: "bad utf8 key stores fine",
			send: "set \xff\x80key 0 0 3\r\nabc\r\n",
			want: []string{"STORED"},
		},
		{name: "oversized key", send: "set " + strings.Repeat("K", 300) + " 0 0 1\r\nz\r\n", want: []string{"CLIENT_ERROR kvstore: key length 300 out of range [1,250]"}},
		{
			name: "pipelined garbage between commands",
			send: "set p1 0 0 1\r\na\r\n\x00garbage\r\nget p1\r\n",
			want: []string{"STORED", "ERROR", "VALUE p1 0 1", "a", "END"},
		},
		{name: "quit with extra args", send: "quit now\r\n", want: nil, fatal: true},
		{
			// No newline within the bound: answered and dropped, not
			// buffered until the client runs out of bytes.
			name:  "line too long",
			send:  strings.Repeat("a", maxLineBytes),
			want:  []string{"CLIENT_ERROR line too long"},
			fatal: true, closed: true,
		},
		{
			name: "longest legal line",
			send: "set " + longKey + " 0 0 1\r\nv\r\n" + longGet,
			want: []string{"STORED", "VALUE " + longKey + " 0 1", "v", "END"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := fmt.Fprintf(conn, "%s", tc.send); err != nil {
				t.Fatalf("send: %v", err)
			}
			r := bufio.NewReader(conn)
			for _, want := range tc.want {
				line, err := r.ReadString('\n')
				if err != nil {
					t.Fatalf("read (want %q): %v", want, err)
				}
				if got := strings.TrimRight(line, "\r\n"); got != want {
					t.Fatalf("got %q, want %q", got, want)
				}
			}
			if tc.closed {
				if _, err := r.ReadByte(); err != io.EOF {
					t.Fatalf("after %q: err = %v, want the server to close", tc.name, err)
				}
			}
			if !tc.fatal {
				// The connection must still parse further commands.
				fmt.Fprintf(conn, "get zz-never-set\r\n")
				line, err := r.ReadString('\n')
				if err != nil {
					t.Fatalf("post-case read: %v", err)
				}
				if got := strings.TrimRight(line, "\r\n"); got != "END" {
					t.Fatalf("post-case got %q, want END", got)
				}
			}
			// Whatever happened on this connection, the server survives.
			probe(t, addr)
		})
	}
}
