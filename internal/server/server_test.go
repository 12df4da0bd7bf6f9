package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"testing"

	"goptm/internal/core"
)

func testStore(t *testing.T, cfg StoreConfig) *Store {
	t.Helper()
	if cfg.Heap == 0 {
		cfg.Heap = 1 << 18 // keep unit-test images small
	}
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// submit sends one request synchronously through the executor.
func submit(t *testing.T, exec *Executor, req *Request) *Request {
	t.Helper()
	req.Done = make(chan struct{})
	if !exec.Submit(req) {
		t.Fatalf("submit rejected: %+v", req)
	}
	<-req.Done
	return req
}

func TestExecutorOps(t *testing.T) {
	st := testStore(t, StoreConfig{Shards: 2})
	exec := NewExecutor(st, ExecConfig{DeadlineNS: -1})

	if r := submit(t, exec, &Request{Op: OpSet, Key: []byte("k1"), Value: []byte("v1"), Flags: 5}); r.Err != nil {
		t.Fatalf("set: %v", r.Err)
	}
	r := submit(t, exec, &Request{Op: OpGet, Key: []byte("k1")})
	if !r.Found || !bytes.Equal(r.Val, []byte("v1")) || r.ValFlags != 5 {
		t.Fatalf("get k1 = %q, %d, found=%v", r.Val, r.ValFlags, r.Found)
	}
	if r := submit(t, exec, &Request{Op: OpGet, Key: []byte("missing")}); r.Found {
		t.Fatal("phantom key")
	}
	submit(t, exec, &Request{Op: OpSet, Key: []byte("n"), Value: []byte("9")})
	r = submit(t, exec, &Request{Op: OpIncr, Key: []byte("n"), Delta: 33})
	if !r.Found || r.Err != nil || r.NewVal != 42 {
		t.Fatalf("incr = %d, found=%v, err=%v", r.NewVal, r.Found, r.Err)
	}
	if r := submit(t, exec, &Request{Op: OpDelete, Key: []byte("k1")}); !r.Found {
		t.Fatal("delete k1: not found")
	}
	if r := submit(t, exec, &Request{Op: OpGet, Key: []byte("k1")}); r.Found {
		t.Fatal("k1 survived delete")
	}

	exec.Drain()
	es := exec.Snapshot()
	if es.Executed() != 7 {
		t.Fatalf("executed = %d, want 7", es.Executed())
	}
	if es.Latency.Count() != 7 {
		t.Fatalf("latency samples = %d, want 7", es.Latency.Count())
	}
	if exec.Submit(&Request{Op: OpGet, Key: []byte("k1")}) {
		t.Fatal("submit accepted after drain")
	}
}

// TestImageRoundTrip is clean persistence: populate through the
// executor, drain, power-fail, save, reopen, verify every key.
func TestImageRoundTrip(t *testing.T) {
	st := testStore(t, StoreConfig{Shards: 2})
	exec := NewExecutor(st, ExecConfig{DeadlineNS: -1})
	const n = 100
	for i := 0; i < n; i++ {
		r := submit(t, exec, &Request{
			Op:    OpSet,
			Key:   fmt.Appendf(nil, "key-%d", i),
			Value: fmt.Appendf(nil, "value-%d", i),
			Flags: uint32(i),
		})
		if r.Err != nil {
			t.Fatalf("set %d: %v", i, r.Err)
		}
	}
	exec.Drain()

	vt := exec.LastVT()
	st.Crash(vt)
	path := filepath.Join(t.TempDir(), "kv.img")
	if err := st.SaveImage(path); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenDurable(path, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Recovered {
		t.Fatal("reopened store not marked recovered")
	}
	th := st2.TM().Thread(0)
	defer th.Detach()
	kv := st2.KV()
	th.Atomic(func(tx *core.Tx) {
		if got := kv.Len(tx); got != n {
			t.Fatalf("len after reopen = %d, want %d", got, n)
		}
		for i := 0; i < n; i++ {
			v, flags, ok := kv.Get(tx, fmt.Appendf(nil, "key-%d", i))
			want := fmt.Appendf(nil, "value-%d", i)
			if !ok || !bytes.Equal(v, want) || flags != uint32(i) {
				t.Fatalf("key-%d after reopen = %q, %d, %v", i, v, flags, ok)
			}
		}
	})
}

// TestExecutorClampsShardsToImage: an image remembers its shard count
// (the machine has Shards+1 threads), so restarting it with a larger
// -shards must serve on the image's count instead of reaching for
// threads the machine does not have.
func TestExecutorClampsShardsToImage(t *testing.T) {
	st := testStore(t, StoreConfig{Shards: 2})
	path := filepath.Join(t.TempDir(), "kv.img")
	st.Crash(0)
	if err := st.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenDurable(path, StoreConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(st2, ExecConfig{Shards: 4, DeadlineNS: -1})
	defer exec.Drain()
	if got := exec.Config().Shards; got != 2 {
		t.Fatalf("executor shards = %d, want the image's 2", got)
	}
	for i := 0; i < 16; i++ { // enough keys to land on every shard
		key := fmt.Appendf(nil, "key-%d", i)
		if r := submit(t, exec, &Request{Op: OpSet, Key: key, Value: key}); r.Err != nil {
			t.Fatalf("set %s: %v", key, r.Err)
		}
		if r := submit(t, exec, &Request{Op: OpGet, Key: key}); !r.Found || !bytes.Equal(r.Val, key) {
			t.Fatalf("get %s = %q, found=%v", key, r.Val, r.Found)
		}
	}
}

// TestRecoveryMidBatch cuts the power inside an executor batch commit,
// under redo and under undo logging, and asserts durable
// linearizability across the image round trip: everything
// acknowledged before the crash survives, and the cut batch either
// committed atomically or vanished atomically — never partially.
func TestRecoveryMidBatch(t *testing.T) {
	for _, tc := range []struct {
		algo        core.Algo
		point       string
		wantSurvive bool // must the cut batch's first transaction survive?
		// recovered counts the recovery work the crash point demands
		// (redo replayed, undo rolled back); nil demands none.
		recovered func(core.RecoveryReport) int
	}{
		// Commit marker durable: redo replay must finish the batch.
		{core.OrecLazy, "lazy:post-marker", true, func(r core.RecoveryReport) int { return r.RedoReplayed }},
		// No marker: recovery must discard the log.
		{core.OrecLazy, "lazy:pre-marker", false, nil},
		// Undo log cleared: the in-place writes are the committed batch.
		{core.OrecEager, "eager:post-clear", true, nil},
		// Undo log still active: recovery must roll the batch back.
		{core.OrecEager, "eager:pre-clear", false, func(r core.RecoveryReport) int { return r.UndoRolledBack }},
	} {
		t.Run(tc.point, func(t *testing.T) {
			st := testStore(t, StoreConfig{Algo: tc.algo, Shards: 1}) // one shard: FIFO commit order
			exec := NewExecutor(st, ExecConfig{DeadlineNS: -1})

			// Phase 1: acknowledged writes — these must survive anything.
			const acked = 40
			for i := 0; i < acked; i++ {
				r := submit(t, exec, &Request{
					Op:    OpSet,
					Key:   fmt.Appendf(nil, "acked-%d", i),
					Value: fmt.Appendf(nil, "val-%d", i),
				})
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}

			// Phase 2: arm the crash hook, then feed unacknowledged
			// writes; the hook fires inside the next batch's commit.
			st.TM().SetCrashHook(func(p string, th *core.Thread) {
				if p == tc.point {
					panic(core.PowerFailure{Point: p})
				}
			})
			const cut = 8
			for i := 0; i < cut; i++ {
				exec.Submit(&Request{
					Op:    OpSet,
					Key:   fmt.Appendf(nil, "cut-%d", i),
					Value: fmt.Appendf(nil, "cutval-%d", i),
				})
			}
			exec.Drain() // the worker dies at the injected power failure

			st.Crash(exec.LastVT())
			path := filepath.Join(t.TempDir(), "crash.img")
			if err := st.SaveImage(path); err != nil {
				t.Fatal(err)
			}
			st2, err := OpenDurable(path, StoreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if tc.recovered != nil && tc.recovered(st2.Recovery) == 0 {
				t.Fatalf("%s crash recovered without the log work it demands: %+v", tc.point, st2.Recovery)
			}

			th := st2.TM().Thread(0)
			defer th.Detach()
			kv := st2.KV()
			th.Atomic(func(tx *core.Tx) {
				for i := 0; i < acked; i++ {
					v, _, ok := kv.Get(tx, fmt.Appendf(nil, "acked-%d", i))
					if !ok || !bytes.Equal(v, fmt.Appendf(nil, "val-%d", i)) {
						t.Fatalf("acknowledged key acked-%d lost or corrupt after crash: %q, %v", i, v, ok)
					}
				}
				// The single shard commits batches in FIFO order, so the
				// surviving cut keys must be a prefix of submission order.
				present := make([]bool, cut)
				for i := 0; i < cut; i++ {
					v, _, ok := kv.Get(tx, fmt.Appendf(nil, "cut-%d", i))
					if ok && !bytes.Equal(v, fmt.Appendf(nil, "cutval-%d", i)) {
						t.Fatalf("cut-%d present but corrupt: %q", i, v)
					}
					present[i] = ok
				}
				for i := 1; i < cut; i++ {
					if present[i] && !present[i-1] {
						t.Fatalf("torn batch order: cut-%d survived but cut-%d did not (%v)", i, i-1, present)
					}
				}
				if tc.wantSurvive && !present[0] {
					t.Fatalf("crash after the batch's commit point, but cut-0 did not survive recovery (%v)", present)
				}
				if !tc.wantSurvive && present[0] {
					t.Fatalf("crash before the batch's commit point, but cut batch survived (%v)", present)
				}
			})
		})
	}
}

// TestServerTCP runs the whole stack in-process: real sockets, the
// memcached text protocol, graceful shutdown with an image save, and
// a verified reopen.
func TestServerTCP(t *testing.T) {
	st := testStore(t, StoreConfig{Shards: 2})
	exec := NewExecutor(st, ExecConfig{DeadlineNS: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(st, exec, ln)

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	send := func(format string, args ...any) {
		t.Helper()
		if _, err := fmt.Fprintf(conn, format, args...); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(want string) {
		t.Helper()
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading (want %q): %v", want, err)
		}
		if got := string(bytes.TrimRight([]byte(line), "\r\n")); got != want {
			t.Fatalf("got %q, want %q", got, want)
		}
	}

	send("set greeting 7 0 5\r\nhello\r\n")
	expect("STORED")
	send("get greeting\r\n")
	expect("VALUE greeting 7 5")
	expect("hello")
	expect("END")
	send("set n 0 0 2\r\n41\r\n")
	expect("STORED")
	send("incr n 1\r\n")
	expect("42")
	send("incr missing 1\r\n")
	expect("NOT_FOUND")
	send("delete greeting\r\n")
	expect("DELETED")
	send("delete greeting\r\n")
	expect("NOT_FOUND")
	send("get greeting\r\n")
	expect("END")
	send("bogus\r\n")
	expect("ERROR")
	send("set big 0 0 1048576\r\n") // over MaxValueBytes: rejected, payload consumed
	send("%s\r\n", bytes.Repeat([]byte("x"), 1048576))
	expect("SERVER_ERROR object too large for cache")
	send("get n\r\n") // the stream is still parseable after the rejection
	expect("VALUE n 0 2")
	expect("42")
	expect("END")
	conn.Close()

	srv.Shutdown()
	vt := exec.LastVT()
	st.Crash(vt)
	path := filepath.Join(t.TempDir(), "tcp.img")
	if err := st.SaveImage(path); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenDurable(path, StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	th := st2.TM().Thread(0)
	defer th.Detach()
	kv := st2.KV()
	th.Atomic(func(tx *core.Tx) {
		v, _, ok := kv.Get(tx, []byte("n"))
		if !ok || !bytes.Equal(v, []byte("42")) {
			t.Fatalf("n after shutdown/reopen = %q, %v", v, ok)
		}
		if _, _, ok := kv.Get(tx, []byte("greeting")); ok {
			t.Fatal("deleted key resurrected by recovery")
		}
	})
}
