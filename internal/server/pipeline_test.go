package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
)

// The pipelining tests pin the property the TCP rewrite exists for: a
// single connection that writes a burst of commands has all of them in
// flight at once (so one client can fill group-commit batches), while
// the responses still come back strictly in command order.

func pipeServer(t *testing.T, scfg StoreConfig, ecfg ExecConfig) (*Server, *Executor, net.Conn, *bufio.Reader) {
	t.Helper()
	st := testStore(t, scfg)
	exec := NewExecutor(st, ecfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(st, exec, ln)
	t.Cleanup(srv.Shutdown)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return srv, exec, conn, bufio.NewReader(conn)
}

func expectLine(t *testing.T, r *bufio.Reader, want string) {
	t.Helper()
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("reading (want %q): %v", want, err)
	}
	if got := strings.TrimRight(line, "\r\n"); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestPipelinedBurstFillsBatches writes a burst of noreply sets in one
// TCP segment: the parse-ahead reader must queue them concurrently, so
// the shard worker sees a deep queue and coalesces multi-op batches.
// The blocking-per-command frontend this replaced could never produce
// a batch bigger than one from a single connection.
func TestPipelinedBurstFillsBatches(t *testing.T) {
	_, exec, conn, r := pipeServer(t,
		StoreConfig{Shards: 1, MaxBatch: 8},
		ExecConfig{Shards: 1, DeadlineNS: -1, QueueDepth: 1024})

	var burst bytes.Buffer
	const n = 400
	for i := 0; i < n; i++ {
		fmt.Fprintf(&burst, "set key-%d 0 0 8 noreply\r\nvalue-%02d\r\n", i%32, i%100)
	}
	// A final replied get syncs the test with the burst: FIFO per shard
	// means its response proves every earlier set on the shard executed.
	burst.WriteString("get key-0\r\n")
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	expectLine(t, r, "VALUE key-0 0 8")
	expectLine(t, r, "value-84") // i=352 is the last write of key-0: 352%100
	expectLine(t, r, "END")

	es := exec.Snapshot()
	if es.Executed() < n {
		t.Fatalf("executed %d, want >= %d", es.Executed(), n)
	}
	mean := float64(es.Executed()) / float64(es.BatchSizes.Count())
	if mean < 1.5 {
		t.Fatalf("mean batch %.2f over %d batches: pipelined burst did not coalesce", mean, es.BatchSizes.Count())
	}
	t.Logf("burst of %d pipelined sets: %d batches, mean %.2f", n, es.BatchSizes.Count(), mean)
}

// TestPipelineFIFO interleaves commands with distinguishable replies
// in one write and requires the responses byte-for-byte in command
// order.
func TestPipelineFIFO(t *testing.T) {
	_, _, conn, r := pipeServer(t,
		StoreConfig{Shards: 2},
		ExecConfig{DeadlineNS: -1})

	var burst bytes.Buffer
	burst.WriteString("set a 0 0 1\r\nA\r\n")
	burst.WriteString("set n 0 0 1\r\n7\r\n")
	burst.WriteString("get a\r\n")
	burst.WriteString("incr n 1\r\n")
	burst.WriteString("get missing\r\n")
	burst.WriteString("incr n 10\r\n")
	burst.WriteString("delete a\r\n")
	burst.WriteString("get a\r\n")
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"STORED", "STORED",
		"VALUE a 0 1", "A", "END",
		"8",
		"END",
		"18",
		"DELETED",
		"END",
	} {
		expectLine(t, r, want)
	}
}

// TestPipelineMultiGetOrder spreads keys across shards and requires a
// multi-key get to return values in request order — the executor
// serves them concurrently, the writer reassembles the order.
func TestPipelineMultiGetOrder(t *testing.T) {
	_, exec, conn, r := pipeServer(t,
		StoreConfig{Shards: 4},
		ExecConfig{Shards: 4, DeadlineNS: -1})

	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	var burst bytes.Buffer
	for i, k := range keys {
		fmt.Fprintf(&burst, "set %s 0 0 2 noreply\r\nv%d\r\n", k, i)
	}
	// Sanity: the keys really do land on more than one shard, or this
	// test is not exercising the cross-shard gather.
	shards := map[int]bool{}
	for _, k := range keys {
		shards[exec.ShardOf([]byte(k))] = true
	}
	if len(shards) < 2 {
		t.Fatalf("test keys all hash to one shard; pick different keys")
	}
	fmt.Fprintf(&burst, "get %s missing %s\r\n", strings.Join(keys[:3], " "), strings.Join(keys[3:], " "))
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		expectLine(t, r, fmt.Sprintf("VALUE %s 0 2", k))
		expectLine(t, r, fmt.Sprintf("v%d", i))
		_ = i
	}
	expectLine(t, r, "END")
}

// TestPipelineIncrNoreply: incr honours noreply like set and delete. A
// burst of noreply incrs writes nothing to the response stream, so the
// get behind it reads exactly one VALUE ... END with the summed value
// and the reply after that is still in step.
func TestPipelineIncrNoreply(t *testing.T) {
	_, _, conn, r := pipeServer(t,
		StoreConfig{Shards: 2},
		ExecConfig{DeadlineNS: -1})

	var burst bytes.Buffer
	burst.WriteString("set ctr 0 0 1\r\n5\r\n")
	for i := 0; i < 20; i++ {
		burst.WriteString("incr ctr 3 noreply\r\n")
	}
	burst.WriteString("get ctr\r\n")
	burst.WriteString("incr ctr 1\r\n")
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"STORED",
		"VALUE ctr 0 2", "65", "END",
		"66",
	} {
		expectLine(t, r, want)
	}
}

// TestPipelineMalformedMidStream pipelines a garbage command between
// valid ones: the bad command answers ERROR in order and the stream
// stays parseable for everything queued behind it.
func TestPipelineMalformedMidStream(t *testing.T) {
	_, _, conn, r := pipeServer(t,
		StoreConfig{Shards: 2},
		ExecConfig{DeadlineNS: -1})

	var burst bytes.Buffer
	burst.WriteString("set k 0 0 2\r\nok\r\n")
	burst.WriteString("frobnicate the server\r\n")
	burst.WriteString("incr k zzz\r\n") // parses as incr, bad delta
	burst.WriteString("get k\r\n")
	burst.WriteString("quit\r\n")
	if _, err := conn.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"STORED",
		"ERROR",
		"CLIENT_ERROR invalid numeric delta argument",
		"VALUE k 0 2", "ok", "END",
	} {
		expectLine(t, r, want)
	}
	// quit: the server closes after flushing everything before it.
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("after quit: err = %v, want EOF", err)
	}
}

// TestPopTimeShedding pins the satellite: an expired request is shed
// when popped — before it consumes a batch slot — and lands in the
// per-shard shed count, not in the latency histogram.
func TestPopTimeShedding(t *testing.T) {
	st := testStore(t, StoreConfig{Shards: 1})
	exec := NewExecutor(st, ExecConfig{Shards: 1, DeadlineNS: 1000})
	// Warm the shard clock past the deadline with a real request.
	submit(t, exec, &Request{Op: OpSet, Key: []byte("warm"), Value: []byte("x")})
	for exec.LastVT() <= 2000 {
		submit(t, exec, &Request{Op: OpSet, Key: []byte("warm"), Value: []byte("x")})
	}
	// The warm requests themselves may age out under the tight
	// deadline; only the delta from here on is the assertion.
	preShed := exec.Snapshot().Shards[0].Shed
	// EnqVT=1 is ancient relative to the shard clock: must shed.
	stale := &Request{Op: OpGet, Key: []byte("warm"), EnqVT: 1, Done: make(chan struct{})}
	if !exec.Submit(stale) {
		t.Fatal("submit rejected")
	}
	<-stale.Done
	if !stale.Shed {
		t.Fatal("stale request executed; want pop-time shed")
	}
	exec.Drain()
	es := exec.Snapshot()
	if got := es.Shards[0].Shed - preShed; got != 1 {
		t.Fatalf("shard shed delta = %d, want 1", got)
	}
	if es.Shed() != es.Shards[0].Shed {
		t.Fatalf("stats shed = %d, shard shed = %d: roll-up disagrees", es.Shed(), es.Shards[0].Shed)
	}
	if es.Latency.Count() != es.Executed() {
		t.Fatalf("latency count %d != executed %d: shed request polluted the histogram",
			es.Latency.Count(), es.Executed())
	}
}

// TestWarmupExcludedFromLatency pins the Warmup flag: the request
// executes and counts, but stays out of the percentiles.
func TestWarmupExcludedFromLatency(t *testing.T) {
	st := testStore(t, StoreConfig{Shards: 1})
	exec := NewExecutor(st, ExecConfig{Shards: 1, DeadlineNS: -1})
	submit(t, exec, &Request{Op: OpSet, Key: []byte("w"), Value: []byte("x"), Warmup: true})
	submit(t, exec, &Request{Op: OpGet, Key: []byte("w")})
	exec.Drain()
	es := exec.Snapshot()
	if es.Executed() != 2 || es.Latency.Count() != 1 {
		t.Fatalf("executed %d latency-count %d, want 2 and 1", es.Executed(), es.Latency.Count())
	}
}
