package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"goptm/internal/core"
)

// populateDurable opens a durable store at path, writes n keys through
// a DurableAck executor (every response backed by the journal), and
// returns without saving an image — the moral equivalent of a SIGKILL:
// whatever the next open reconstructs must include every acked write.
func populateDurable(t *testing.T, path string, n int) {
	t.Helper()
	st, err := OpenDurable(path, StoreConfig{Shards: 2, Heap: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(st, ExecConfig{DeadlineNS: -1, DurableAck: true})
	for i := 0; i < n; i++ {
		r := submit(t, exec, &Request{
			Op:    OpSet,
			Key:   fmt.Appendf(nil, "wal-key-%d", i),
			Value: fmt.Appendf(nil, "wal-value-%d", i),
		})
		if r.Err != nil {
			t.Fatalf("set %d: %v", i, r.Err)
		}
	}
	// Stop the shard workers (so the test doesn't leak goroutines) but
	// deliberately skip Crash/SaveImage: the image on disk is still the
	// empty base, and durability must come from the journal alone.
	exec.Drain()
}

func TestDurableAckSurvivesProcessKill(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kv.img")
	const n = 50
	populateDurable(t, path, n)

	if _, err := os.Stat(WALPath(path)); err != nil {
		t.Fatalf("no journal after durable writes: %v", err)
	}
	st2, err := OpenDurable(path, StoreConfig{})
	if err != nil {
		t.Fatalf("reopen after simulated kill: %v", err)
	}
	if st2.WALBatches == 0 {
		t.Fatal("reopen replayed no journal batches")
	}
	th := st2.TM().Thread(0)
	kv := st2.KV()
	th.Atomic(func(tx *core.Tx) {
		for i := 0; i < n; i++ {
			v, _, ok := kv.Get(tx, fmt.Appendf(nil, "wal-key-%d", i))
			if !ok || !bytes.Equal(v, fmt.Appendf(nil, "wal-value-%d", i)) {
				t.Fatalf("acked wal-key-%d lost across process kill: %q, %v", i, v, ok)
			}
		}
	})
	th.Detach()

	// Clean shutdown: crash, save, finish. The journal is consumed into
	// the image and removed; what remains reopens without it.
	st2.Crash(0)
	if err := st2.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	st2.FinishJournal()
	if _, err := os.Stat(WALPath(path)); !os.IsNotExist(err) {
		t.Fatalf("journal still present after FinishJournal: %v", err)
	}
	st3, err := OpenImage(path)
	if err != nil {
		t.Fatal(err)
	}
	th = st3.TM().Thread(0)
	defer th.Detach()
	kv = st3.KV()
	th.Atomic(func(tx *core.Tx) {
		if _, _, ok := kv.Get(tx, []byte("wal-key-0")); !ok {
			t.Fatal("key lost across clean save")
		}
	})
}

func TestTornJournalTailDroppedWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kv.img")
	populateDurable(t, path, 10)

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
	populateDurable(t, path, 5)

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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := filepath.Join(dir, "bad.img")
			if err := os.WriteFile(bad, tc.mut(good), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenImage(bad)
			if !errors.Is(err, ErrCorruptImage) {
				t.Fatalf("OpenImage(%s) = %v, want ErrCorruptImage", tc.name, err)
			}
			// OpenOrRecover must refuse too — never silently reformat
			// over a corrupt image.
			if _, err := OpenOrRecover(bad, StoreConfig{}); !errors.Is(err, ErrCorruptImage) {
				t.Fatalf("OpenOrRecover(%s) = %v, want ErrCorruptImage", tc.name, err)
			}
		})
	}

	// The untouched image still opens.
	if _, err := OpenImage(path); err != nil {
		t.Fatalf("pristine image rejected: %v", err)
	}
}

// TestUnexaminablePathIsNotAFreshStart: only "no such file" may lead to
// formatting. A path whose stat fails any other way (here ENOTDIR: a
// regular file stands where a directory should) must be an error from
// both openers, with nothing created — not a fresh, un-recovered store
// served over an image that was never looked at.
func TestUnexaminablePathIsNotAFreshStart(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "plain")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := StoreConfig{Shards: 1, Heap: 1 << 18}
	openers := []struct {
		name string
		open func(string, StoreConfig) (*Store, error)
	}{
		{"OpenOrRecover", OpenOrRecover},
		{"OpenDurable", OpenDurable},
	}
	for _, o := range openers {
		t.Run(o.name, func(t *testing.T) {
			bad := filepath.Join(file, "kv.img")
			if _, err := o.open(bad, cfg); err == nil || errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("%s(%s) error = %v; want a stat error", o.name, bad, err)
			}
			if got, err := os.ReadDir(dir); err != nil || len(got) != 1 {
				t.Fatalf("failed open left files behind: %v, %v", got, err)
			}

			absent := filepath.Join(t.TempDir(), "kv.img")
			st, err := o.open(absent, cfg)
			if err != nil || st.Recovered {
				t.Fatalf("%s on an absent path: %v; want a fresh store", o.name, err)
			}
		})
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
