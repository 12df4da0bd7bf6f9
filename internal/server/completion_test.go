package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"goptm/internal/core"
	"goptm/internal/metrics"
	"goptm/internal/obs"
)

// TestCompletionRecordEveryPath drives an executed batch, a pop-time
// shed and a Drain sweep through one executor with the flight ring
// attached on a journaled store, and holds the completion record to
// its contract: every completed request yields exactly one flight
// record whose 8-boundary chain never runs backwards and telescopes to
// the request's end-to-end latency, and no Done closes before the
// journal flush returns.
func TestCompletionRecordEveryPath(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.img")
	st, err := OpenDurable(path, StoreConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	st.TM().SetCrashHook(func(p string, th *core.Thread) {
		if armed.Load() {
			panic(core.PowerFailure{Point: p})
		}
	})
	ring := NewFlightRecorder(4096)
	// IdleSleep keeps virtual time (200 ns per idle poll) far slower
	// than host time, so only the deliberately stale arrival can age
	// past the deadline between its enqueue stamp and its pop.
	exec := NewExecutor(st, ExecConfig{
		DeadlineNS: 100_000, IdleSleep: 20 * time.Microsecond, Flight: ring,
	})
	met := st.TM().Metrics()

	// send submits one request, stamped at the worker's published clock
	// unless enqVT says otherwise. Arrival and enqueue coincide (as in
	// loadsim), so on virtual time a record's TS[0] is its EnqVT.
	var sent []*Request
	send := func(op Op, key string, enqVT int64) *Request {
		t.Helper()
		for enqVT == 0 { // until the worker has published its clock
			enqVT = exec.LastVT()
		}
		req := &Request{Op: op, Key: []byte(key), Value: []byte("v"), EnqVT: enqVT, Done: make(chan struct{})}
		if !exec.Submit(req) {
			t.Fatalf("submit of %q rejected", key)
		}
		sent = append(sent, req)
		return req
	}
	await := func(req *Request) {
		t.Helper()
		select {
		case <-req.Done:
		case <-time.After(10 * time.Second):
			t.Fatalf("request %q never completed", req.Key)
		}
	}

	// Executed batch, barrier ordering. FlushJournal records its latency
	// under flushMu just before it returns, so with that mutex held the
	// worker runs the transaction, the journal append and the file
	// write, then parks inside the flush: a correct executor has emitted
	// nothing and released nothing yet.
	st.flushMu.Lock()
	commits := met.Get(metrics.CtrCommits)
	first := send(OpSet, "first", 0)
	for deadline := time.Now().Add(10 * time.Second); met.Get(metrics.CtrCommits) == commits; {
		if time.Now().After(deadline) {
			t.Fatal("the batch's transaction never committed")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	select {
	case <-first.Done:
		t.Fatal("Done closed before the journal flush returned")
	default:
	}
	if ring.Seq() != 0 {
		t.Fatalf("record emitted inside the barrier: %d flight records", ring.Seq())
	}
	st.flushMu.Unlock()
	await(first)
	wal, err := os.ReadFile(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if _, frames := walScan(wal, st.gen); len(frames) == 0 {
		t.Fatal("write acknowledged with no journal frame on disk")
	}

	// A pipelined burst (multi-member batches), then sequential writes
	// until the shard clock is far past the shed deadline.
	var burst []*Request
	for i := 0; i < 24; i++ {
		op := OpSet
		if i%3 == 2 {
			op = OpGet
		}
		burst = append(burst, send(op, fmt.Sprintf("k%d", i%5), 0))
	}
	for _, req := range burst {
		await(req)
	}
	for exec.LastVT() <= 300_000 {
		await(send(OpSet, "warm", 0))
	}

	// Pop-time shed: an arrival stamped at virtual time 1 is ancient.
	stale := send(OpGet, "first", 1)
	await(stale)
	if !stale.Shed {
		t.Fatal("stale request executed; want pop-time shed")
	}

	// Drain sweep: kill the worker with a power failure inside the next
	// commit, queue two more requests behind the corpse, drain.
	armed.Store(true)
	victim := send(OpSet, "victim", 0)
	dead := make(chan struct{})
	go func() { exec.wg.Wait(); close(dead) }()
	select {
	case <-dead:
	case <-time.After(10 * time.Second):
		t.Fatal("worker survived the injected power failure")
	}
	swept := []*Request{send(OpSet, "late1", 0), send(OpGet, "late2", 0)}
	exec.Drain()
	for _, req := range swept {
		await(req)
		if req.Err != ErrDraining {
			t.Fatalf("swept request %q: err = %v, want ErrDraining", req.Key, req.Err)
		}
	}
	select {
	case <-victim.Done:
		t.Fatal("the request cut by the power failure completed")
	default:
	}

	// Exactly one flight record per completed request — everything sent
	// but the victim — each describing its request: op, flags, and on
	// virtual time an enqueue boundary equal to EnqVT.
	completed := len(sent) - 1
	records := ring.Snapshot()
	if len(records) != completed || ring.Seq() != uint64(completed) {
		t.Fatalf("%d flight records (seq %d) for %d completed requests", len(records), ring.Seq(), completed)
	}
	var want, got []string
	for _, req := range sent {
		if req != victim {
			want = append(want, fmt.Sprintf("op%d@%d shed=%v err=%v", req.Op, req.EnqVT, req.Shed, req.Err != nil))
		}
	}
	var executedNS int64
	for _, r := range records {
		got = append(got, fmt.Sprintf("op%d@%d shed=%v err=%v", r.Op, r.TS[0], r.Shed, r.Err))
		checkChain(t, r)
		if r.Shed || r.Err {
			// Never executed: the lifecycle ends at the pop instant.
			for p := 3; p <= int(obs.NumReqPhases); p++ {
				if r.TS[p] != r.TS[2] {
					t.Fatalf("dropped request has a %s phase: %+v", obs.ReqPhase(p-1), r)
				}
			}
			continue
		}
		executedNS += r.TS[obs.NumReqPhases] - r.TS[0]
		if r.TS[5] != r.TS[4] {
			t.Fatalf("record %d: a WPQ-drain phase on the ack path: %v", r.Seq, r.TS)
		}
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(want, got) {
		t.Fatalf("flight records do not describe the completed requests:\nrecords  %v\nrequests %v", got, want)
	}

	// The shard stats consumed the same records: the executed chains'
	// end-to-end times add up to exactly the latency histogram's sum.
	snap := exec.Snapshot()
	if got, want := snap.Executed(), int64(completed-1-len(swept)); got != want {
		t.Fatalf("executed = %d, want %d", got, want)
	}
	if snap.Latency.Sum() != executedNS {
		t.Fatalf("executed chains span %d ns end to end, the latency histogram %d", executedNS, snap.Latency.Sum())
	}
	if snap.AckBarrier.Count() == 0 || snap.Shed() != 1 || snap.FlightSeq != ring.Seq() {
		t.Fatalf("snapshot missed the records: %d barriers, %d shed, flight seq %d", snap.AckBarrier.Count(), snap.Shed(), snap.FlightSeq)
	}
}

// checkChain holds one flight record's chain to the lifecycle
// contract: parse is zero-width, no boundary runs backwards, and the
// seven phase widths telescope to the end-to-end time.
func checkChain(t *testing.T, r FlightRecord) {
	t.Helper()
	if r.TS[1] != r.TS[0] {
		t.Fatalf("record %d: req-parse is not zero-width: %v", r.Seq, r.TS)
	}
	var sum int64
	for p := 0; p < int(obs.NumReqPhases); p++ {
		if r.TS[p+1] < r.TS[p] {
			t.Fatalf("record %d: boundary %d goes backwards: %v", r.Seq, p, r.TS)
		}
		sum += r.TS[p+1] - r.TS[p]
	}
	if e2e := r.TS[obs.NumReqPhases] - r.TS[0]; sum != e2e || e2e < 0 {
		t.Fatalf("record %d: phases sum to %d, end-to-end is %d", r.Seq, sum, e2e)
	}
}

// TestCompletionRecordWallClock: under WallClock — the TCP server's
// setting — the same chain runs on host ns since executor start. Every
// boundary lies inside the host interval the test observed, and an
// executed durable write shows the barrier in host time.
func TestCompletionRecordWallClock(t *testing.T) {
	st, err := OpenDurable(filepath.Join(t.TempDir(), "kv.img"), StoreConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ring := NewFlightRecorder(64)
	start := time.Now()
	exec := NewExecutor(st, ExecConfig{DeadlineNS: -1, WallClock: true, Flight: ring})
	const n = 16
	for i := 0; i < n; i++ {
		op := OpSet
		if i%2 == 1 {
			op = OpGet
		}
		submit(t, exec, &Request{Op: op, Key: fmt.Appendf(nil, "w%d", i), Value: []byte("v")})
	}
	exec.Drain()
	elapsed := int64(time.Since(start))

	records := ring.Snapshot()
	if len(records) != n {
		t.Fatalf("%d flight records for %d requests", len(records), n)
	}
	barrier := false
	for _, r := range records {
		checkChain(t, r)
		if r.TS[0] < 0 || r.TS[obs.NumReqPhases] > elapsed {
			t.Fatalf("record %d: chain %v outside the host interval [0, %d]", r.Seq, r.TS, elapsed)
		}
		if r.Op == uint8(OpSet) && r.TS[6] > r.TS[4] {
			barrier = true
		}
	}
	if !barrier {
		t.Fatal("no durable write shows its journal barrier in host time")
	}
}

// TestSnapshotRenderingsAgree takes ONE Snapshot of an executor that
// has served traffic (sheds included) and checks that its three
// renderings — memcached stats, Prometheus text, JSON —
// agree on every counter they share and on every per-shard gauge.
func TestSnapshotRenderingsAgree(t *testing.T) {
	st := testStore(t, StoreConfig{Shards: 2})
	// IdleSleep: virtual time must crawl relative to host time, or an
	// honest arrival could age past the deadline before its pop.
	exec := NewExecutor(st, ExecConfig{DeadlineNS: 50_000, IdleSleep: 20 * time.Microsecond})
	for _, s := range exec.shards {
		for s.lastVT.Load() == 0 { // Submit stamps from the published clock
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; exec.LastVT() <= 200_000 || i < 64; i++ {
		submit(t, exec, &Request{Op: OpSet, Key: fmt.Appendf(nil, "k%d", i), Value: []byte("v")})
	}
	// Stale arrivals on both shards: non-zero, unequal shed gauges.
	for i, n := 0, [2]int{}; n[0] < 1 || n[1] < 3; i++ {
		key := fmt.Appendf(nil, "stale%d", i)
		if si := exec.ShardOf(key); n[si] < 1+2*si {
			n[si]++
			submit(t, exec, &Request{Op: OpGet, Key: key, EnqVT: 1})
		}
	}
	exec.Drain()
	snap := exec.Snapshot()

	var sb bytes.Buffer
	sw := bufio.NewWriter(&sb)
	snap.writeStats(sw)
	sw.Flush()
	stat := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "END\r\n"), "\r\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "STAT" {
			stat[f[1]], _ = strconv.ParseInt(f[2], 10, 64)
		} else if line != "" {
			t.Fatalf("malformed stats line %q", line)
		}
	}
	var pb strings.Builder
	snap.writeProm(&pb)
	prom := map[string]int64{}
	for _, line := range strings.Split(pb.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			prom[f[0]], _ = strconv.ParseInt(f[1], 10, 64)
		}
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters   map[string]int64 `json:"counters"`
		QueueDepth int64            `json:"queue_depth"`
		Shards     []map[string]int64
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}

	// Every registry counter: JSON and Prometheus carry all of them.
	if len(doc.Counters) != int(metrics.NumCounters) {
		t.Fatalf("JSON carries %d counters, registry has %d", len(doc.Counters), metrics.NumCounters)
	}
	for name, v := range doc.Counters {
		if got, ok := prom["goptm_"+name+"_total"]; !ok || got != v {
			t.Errorf("counter %s: JSON %d, Prometheus %d (present %v)", name, v, got, ok)
		}
	}
	// The six the stats reply shares with them, by its own key names.
	for key, name := range map[string]string{
		"batched_ops_total": "srv_batched_ops", "batches_total": "srv_batches", "cmd_total": "srv_requests",
		"shed_total": "srv_shed", "txn_aborts": "aborts", "txn_commits": "commits",
	} {
		want, ok := doc.Counters[name]
		if got, has := stat[key]; !ok || !has || got != want {
			t.Errorf("stats %s = %d, counter %s = %d (present %v/%v)", key, got, name, want, has, ok)
		}
	}
	if stat["queue_depth"] != doc.QueueDepth || prom["goptm_srv_queue_depth"] != doc.QueueDepth {
		t.Errorf("queue depth: stats %d, Prometheus %d, JSON %d", stat["queue_depth"], prom["goptm_srv_queue_depth"], doc.QueueDepth)
	}
	// Per-shard gauges, both, all three renderings.
	if len(doc.Shards) != 2 {
		t.Fatalf("JSON has %d shards, want 2", len(doc.Shards))
	}
	for i, sh := range doc.Shards {
		for _, g := range []string{"queue_depth", "shed"} {
			want, ok := sh[g]
			s, sok := stat[fmt.Sprintf("shard%d_%s", i, g)]
			p, pok := prom[fmt.Sprintf("goptm_srv_shard_%s{shard=\"%d\"}", g, i)]
			if !ok || !sok || !pok || s != want || p != want {
				t.Errorf("shard %d %s: JSON %d, stats %d, Prometheus %d (present %v/%v/%v)", i, g, want, s, p, ok, sok, pok)
			}
		}
	}
	// None of that may be vacuous 0 == 0.
	if stat["cmd_total"] < 64 || stat["shard0_shed"] != 1 || stat["shard1_shed"] != 3 || stat["txn_commits"] == 0 {
		t.Fatalf("traffic left the gauges empty: %v", stat)
	}
}
