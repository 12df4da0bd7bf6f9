package client

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"goptm/internal/server"
)

// fastCfg keeps retries snappy for tests.
func fastCfg(addr string) Config {
	return Config{
		Addr:           addr,
		DialTimeout:    200 * time.Millisecond,
		RequestTimeout: 300 * time.Millisecond,
		MaxTries:       3,
		BackoffBase:    time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
		Seed:           42,
	}
}

// startServer brings up a real Store+Executor+TCP frontend.
func startServer(t *testing.T) (addr string, shutdown func()) {
	t.Helper()
	st, err := server.Open(server.StoreConfig{Shards: 2, Heap: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	exec := server.NewExecutor(st, server.ExecConfig{DeadlineNS: -1, IdleSleep: 20 * time.Microsecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.Serve(st, exec, ln)
	return srv.Addr().String(), srv.Shutdown
}

func TestBasicOps(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	c := New(fastCfg(addr))
	defer c.Close()

	res, err := c.Set("alpha", []byte("hello"), 7)
	if err != nil || !res.Acked || res.Tries != 1 || res.MaybeApplied != 0 {
		t.Fatalf("set: res=%+v err=%v", res, err)
	}
	res, err = c.Get("alpha")
	if err != nil || !res.Acked || !res.Found || string(res.Value) != "hello" || res.Flags != 7 {
		t.Fatalf("get: res=%+v err=%v", res, err)
	}
	res, err = c.Get("missing")
	if err != nil || !res.Acked || res.Found {
		t.Fatalf("get miss: res=%+v err=%v", res, err)
	}
	if _, err := c.Set("ctr", []byte("10"), 0); err != nil {
		t.Fatal(err)
	}
	res, err = c.Incr("ctr", 5)
	if err != nil || !res.Acked || !res.Found || res.NewVal != 15 {
		t.Fatalf("incr: res=%+v err=%v", res, err)
	}
	res, err = c.Incr("absent", 1)
	if err != nil || !res.Acked || res.Found {
		t.Fatalf("incr absent: res=%+v err=%v", res, err)
	}
	res, err = c.Delete("alpha")
	if err != nil || !res.Acked || !res.Found {
		t.Fatalf("delete: res=%+v err=%v", res, err)
	}
	res, err = c.Delete("alpha")
	if err != nil || !res.Acked || res.Found {
		t.Fatalf("re-delete: res=%+v err=%v", res, err)
	}
}

// fakeServer runs handler once per accepted connection, in accept
// order, then keeps the listener open so further dials don't fail.
func fakeServer(t *testing.T, handlers ...func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if i < len(handlers) {
				handlers[i](conn)
			}
		}
	}()
	return ln.Addr().String()
}

// readLine consumes up to and including one LF (plus a set payload if
// the command carries one).
func readRequest(conn net.Conn) string {
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil {
		return ""
	}
	if strings.HasPrefix(line, "set ") {
		io.CopyN(io.Discard, r, int64(r.Buffered())) // payload already buffered in tests
	}
	return line
}

// TestRedialAfterDrop: the first connection dies after the request is
// sent; the client must re-dial and succeed on the second, and the
// aborted mutating attempt must be counted as maybe-applied.
func TestRedialAfterDrop(t *testing.T) {
	addr := fakeServer(t,
		func(conn net.Conn) { readRequest(conn); conn.Close() },
		func(conn net.Conn) {
			readRequest(conn)
			conn.Write([]byte("STORED\r\n"))
			conn.Close()
		},
	)
	c := New(fastCfg(addr))
	defer c.Close()
	res, err := c.Set("k", []byte("v"), 0)
	if err != nil {
		t.Fatalf("set after drop: %v", err)
	}
	if !res.Acked || res.Tries != 2 || res.MaybeApplied != 1 {
		t.Fatalf("want acked on try 2 with 1 maybe-applied, got %+v", res)
	}
}

// TestDialFailureIsDefiniteNo: when no listener answers, no bytes
// were ever sent, so the failed call must report zero maybe-applied.
func TestDialFailureIsDefiniteNo(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // dead port
	c := New(fastCfg(addr))
	defer c.Close()
	res, err := c.Set("k", []byte("v"), 0)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	if res.Acked || res.MaybeApplied != 0 || res.Tries != 3 {
		t.Fatalf("dial failure must be a definite no: %+v", res)
	}
}

// TestBusyIsRetriedWithoutMaybe: SERVER_ERROR busy is the executor's
// admission reject — never enqueued, so retried without widening the
// uncertainty.
func TestBusyIsRetriedWithoutMaybe(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		r := bufio.NewReader(conn)
		r.ReadString('\n') // request line
		r.ReadString('\n') // payload
		conn.Write([]byte("SERVER_ERROR busy\r\n"))
		r.ReadString('\n')
		r.ReadString('\n')
		conn.Write([]byte("STORED\r\n"))
		conn.Close()
	})
	c := New(fastCfg(addr))
	defer c.Close()
	res, err := c.Set("k", []byte("v"), 0)
	if err != nil {
		t.Fatalf("set through busy: %v", err)
	}
	if !res.Acked || res.Tries != 2 || res.MaybeApplied != 0 {
		t.Fatalf("busy must retry without maybe-applied: %+v", res)
	}
}

// TestTimeoutCountsMaybeApplied: a server that swallows requests
// leaves every attempt in the unknown state.
func TestTimeoutCountsMaybeApplied(t *testing.T) {
	swallow := func(conn net.Conn) { io.Copy(io.Discard, conn) }
	addr := fakeServer(t, swallow, swallow, swallow)
	cfg := fastCfg(addr)
	cfg.RequestTimeout = 50 * time.Millisecond
	c := New(cfg)
	defer c.Close()
	res, err := c.Incr("ctr", 1)
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	if res.Acked || res.MaybeApplied != 3 || res.Tries != 3 {
		t.Fatalf("every timed-out attempt is maybe-applied: %+v", res)
	}
}

// TestClientErrorIsTerminal: an in-band parse rejection is a definite
// outcome — no retries, typed error.
func TestClientErrorIsTerminal(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		readRequest(conn)
		conn.Write([]byte("CLIENT_ERROR bad data chunk\r\n"))
		conn.Close()
	})
	c := New(fastCfg(addr))
	defer c.Close()
	res, err := c.Incr("ctr", 1)
	var ce *ClientError
	if !errors.As(err, &ce) {
		t.Fatalf("want ClientError, got %v", err)
	}
	if res.Tries != 1 || res.MaybeApplied != 0 {
		t.Fatalf("terminal rejection must not retry: %+v", res)
	}
}

// TestJitterDeterministic: the same seed yields the same jitter
// stream, so soak schedules replay exactly.
func TestJitterDeterministic(t *testing.T) {
	a, b := New(Config{Addr: "x", Seed: 9}), New(Config{Addr: "x", Seed: 9})
	for i := 0; i < 16; i++ {
		if av, bv := a.jitter(), b.jitter(); av != bv {
			t.Fatalf("jitter diverged at step %d: %d != %d", i, av, bv)
		}
	}
	c := New(Config{Addr: "x", Seed: 10})
	if a.jitter() == c.jitter() {
		t.Fatal("different seeds produced identical first step")
	}
}

// TestGetPayloadRoundTrip exercises the multi-line VALUE parse,
// including binary payloads containing CRLF.
func TestGetPayloadRoundTrip(t *testing.T) {
	addr, shutdown := startServer(t)
	defer shutdown()
	c := New(fastCfg(addr))
	defer c.Close()
	val := []byte("bin\r\nary\x00data")
	if _, err := c.Set("bin", val, 3); err != nil {
		t.Fatal(err)
	}
	res, err := c.Get("bin")
	if err != nil || !res.Found || !bytes.Equal(res.Value, val) || res.Flags != 3 {
		t.Fatalf("binary round trip: res=%+v err=%v", res, err)
	}
}
