package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// httpGet fetches one path over a raw HTTP/1.0 connection (no chunked
// framing, no keep-alive goroutines left behind) and returns the body.
func httpGet(t *testing.T, addr, path string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET %s HTTP/1.0\r\nHost: telemetry\r\n\r\n", path)
	br := bufio.NewReader(conn)
	status, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "200") {
		t.Fatalf("GET %s: %s", path, strings.TrimSpace(status))
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line == "\r\n" {
			break
		}
	}
	body, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// promLine matches the two legal exposition shapes: a metric sample
// (name, optional {labels}, value) or a # TYPE comment.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?)$`)

func startTelemetryStore(t *testing.T) (*Store, *Executor, *Telemetry) {
	t.Helper()
	st := testStore(t, StoreConfig{Shards: 2})
	exec := NewExecutor(st, ExecConfig{DeadlineNS: -1, IdleSleep: 50 * time.Microsecond})
	tel, err := StartTelemetry("127.0.0.1:0", exec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tel.Close(); exec.Drain() })
	return st, exec, tel
}

// TestTelemetryMetrics validates the Prometheus text endpoint: every
// line parses, and the counter, gauge, and summary families the CI
// smoke greps for are all present.
func TestTelemetryMetrics(t *testing.T) {
	_, exec, tel := startTelemetryStore(t)
	for i := 0; i < 10; i++ {
		submit(t, exec, &Request{Op: OpSet, Key: fmt.Appendf(nil, "k%d", i), Value: []byte("v")})
	}

	body := httpGet(t, tel.Addr(), "/metrics")
	seen := map[string]bool{}
	shardGauges := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparsable exposition line: %q", line)
		}
		seen[m[1]+m[2]] = true
		if fam, ok := strings.CutPrefix(m[1], "goptm_srv_shard_"); ok {
			shardGauges[fam] = true
		}
	}
	// The per-shard gauge families are exactly these two: batch cap and
	// window are configuration, not state, and are not echoed per shard.
	if len(shardGauges) != 2 || !shardGauges["queue_depth"] || !shardGauges["shed"] {
		t.Errorf("per-shard gauge families = %v, want queue_depth and shed", shardGauges)
	}
	for _, want := range []string{
		"goptm_commits_total",
		"goptm_srv_requests_total",
		"goptm_srv_queue_depth",
		`goptm_srv_shard_queue_depth{shard="0"}`,
		`goptm_srv_shard_queue_depth{shard="1"}`,
		`goptm_srv_shard_shed{shard="0"}`,
		`goptm_srv_shard_shed{shard="1"}`,
		`goptm_srv_request_latency_ns{quantile="0.5"}`,
		`goptm_srv_request_latency_ns{quantile="0.999"}`,
		"goptm_srv_request_latency_ns_sum",
		"goptm_srv_request_latency_ns_count",
		`goptm_srv_batch_size{quantile="0.9"}`,
		`goptm_srv_journal_flush_ns{quantile="0.99"}`,
		`goptm_srv_ack_barrier_ns{quantile="0.5"}`,
	} {
		if !seen[want] {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestTelemetrySnapshot validates the JSON document: full counter set,
// per-shard gauges, histogram payloads.
func TestTelemetrySnapshot(t *testing.T) {
	_, exec, tel := startTelemetryStore(t)
	for i := 0; i < 10; i++ {
		submit(t, exec, &Request{Op: OpSet, Key: fmt.Appendf(nil, "k%d", i), Value: []byte("v")})
	}

	var snap struct {
		WallNS   int64            `json:"wall_ns"`
		Counters map[string]int64 `json:"counters"`
		Shards   []ShardSnapshot  `json:"shards"`
		Latency  struct {
			Count int64 `json:"count"`
		} `json:"latency_ns"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, tel.Addr(), "/snapshot")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.WallNS == 0 {
		t.Fatal("snapshot missing wall stamp")
	}
	if snap.Counters["srv_requests"] != 10 {
		t.Fatalf("srv_requests = %d, want 10", snap.Counters["srv_requests"])
	}
	if _, ok := snap.Counters["commits"]; !ok {
		t.Fatal("snapshot missing commits counter")
	}
	if len(snap.Shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(snap.Shards))
	}
	for i, s := range snap.Shards {
		if s.Shard != i {
			t.Fatalf("shard %d snapshot malformed: %+v", i, s)
		}
	}
	if snap.Latency.Count != 10 {
		t.Fatalf("latency histogram lost samples: %+v", snap.Latency)
	}
	if body := httpGet(t, tel.Addr(), "/healthz"); body != "ok\n" {
		t.Fatalf("healthz = %q", body)
	}
}

// TestTelemetryLoopbackOnly: non-loopback binds are refused; an empty
// host defaults to 127.0.0.1.
func TestTelemetryLoopbackOnly(t *testing.T) {
	st := testStore(t, StoreConfig{Shards: 1})
	exec := NewExecutor(st, ExecConfig{DeadlineNS: -1, IdleSleep: 50 * time.Microsecond})
	defer exec.Drain()
	for _, addr := range []string{"0.0.0.0:0", "8.8.8.8:0", "example.com:0"} {
		if tel, err := StartTelemetry(addr, exec); err == nil {
			tel.Close()
			t.Fatalf("StartTelemetry(%q) accepted a non-loopback bind", addr)
		}
	}
	if _, err := StartTelemetry("nonsense", exec); err == nil {
		t.Fatal("bad address accepted")
	}
	for _, addr := range []string{":0", "localhost:0", "127.0.0.1:0"} {
		tel, err := StartTelemetry(addr, exec)
		if err != nil {
			t.Fatalf("StartTelemetry(%q): %v", addr, err)
		}
		tel.Close()
	}
}

// TestTelemetryShutdownNoLeak: Close must tear down the serve
// goroutine — the SIGTERM drain depends on it.
func TestTelemetryShutdownNoLeak(t *testing.T) {
	st := testStore(t, StoreConfig{Shards: 1})
	exec := NewExecutor(st, ExecConfig{DeadlineNS: -1, IdleSleep: 50 * time.Microsecond})
	defer exec.Drain()

	before := runtime.NumGoroutine()
	tel, err := StartTelemetry("127.0.0.1:0", exec)
	if err != nil {
		t.Fatal(err)
	}
	httpGet(t, tel.Addr(), "/healthz")
	tel.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := net.Dial("tcp", tel.Addr()); err == nil {
		t.Fatal("listener still accepting after Close")
	}
}
