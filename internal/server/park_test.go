package server

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// wallExec starts a WallClock executor — the TCP server's setting —
// and waits until every shard worker has published its first clock,
// after which an idle one parks without touching it again.
func wallExec(t *testing.T, shards int, cfg ExecConfig) *Executor {
	t.Helper()
	cfg.WallClock = true
	exec := NewExecutor(testStore(t, StoreConfig{Shards: shards}), cfg)
	for _, s := range exec.shards {
		for s.lastVT.Load() == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	return exec
}

// keysOn returns n distinct keys that hash to shard si.
func keysOn(exec *Executor, si, n int) [][]byte {
	var keys [][]byte
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Appendf(nil, "p%d", i); exec.ShardOf(k) == si {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestIdleShardsPark: traffic on one shard of four leaves the other
// three's clocks where they were — they parked instead of polling,
// and virtual time moves only with simulated work.
func TestIdleShardsPark(t *testing.T) {
	exec := wallExec(t, 4, ExecConfig{DeadlineNS: -1})
	var idle [4]int64
	for i, s := range exec.shards {
		idle[i] = s.lastVT.Load()
	}
	for _, k := range keysOn(exec, 0, 200) {
		submit(t, exec, &Request{Op: OpSet, Key: k, Value: []byte("v")})
	}
	busy := exec.shards[0].lastVT.Load()
	for i, s := range exec.shards[1:] {
		if vt := s.lastVT.Load(); vt != idle[i+1] {
			t.Fatalf("idle shard %d moved its clock %d -> %d while shard 0 ran to %d", i+1, idle[i+1], vt, busy)
		}
	}
	if busy <= idle[0] {
		t.Fatalf("busy shard's clock did not move: %d -> %d", idle[0], busy)
	}
	exec.Drain()
}

// TestParkedShardAgesFromWake: a shard parked while another runs far
// ahead wakes at the machine's present; a request submitted to it
// meanwhile ages from the wake, not from the stale clock Submit
// stamped, so it is not shed.
func TestParkedShardAgesFromWake(t *testing.T) {
	const deadline = 100_000
	exec := wallExec(t, 2, ExecConfig{DeadlineNS: deadline})
	parkedAt := exec.shards[1].lastVT.Load()
	for i := 0; exec.shards[0].lastVT.Load() <= parkedAt+3*deadline; i++ {
		if key := fmt.Appendf(nil, "p%d", i); exec.ShardOf(key) == 0 {
			submit(t, exec, &Request{Op: OpSet, Key: key, Value: []byte("v")})
		}
	}
	req := submit(t, exec, &Request{Op: OpSet, Key: keysOn(exec, 1, 1)[0], Value: []byte("v")})
	if req.Shed {
		t.Fatalf("request to a shard parked at %d shed on wake (enqueue stamp %d, other shard at %d)",
			parkedAt, req.EnqVT, exec.shards[0].lastVT.Load())
	}
	exec.Drain()
	for _, sh := range exec.Snapshot().Shards {
		if sh.Shed != 0 {
			t.Fatalf("shard %d shed %d", sh.Shard, sh.Shed)
		}
	}
}

// TestParkNoLostWake: many submitters racing the workers' park/wake
// handshake — every request completes.
func TestParkNoLostWake(t *testing.T) {
	const submitters, each = 8, 2000
	exec := wallExec(t, 4, ExecConfig{DeadlineNS: -1})
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				op := OpSet
				if i%3 == 2 {
					op = OpGet
				}
				req := &Request{Op: op, Key: fmt.Appendf(nil, "g%d-%d", g, i%64), Value: []byte("v"), Done: make(chan struct{})}
				if !exec.Submit(req) {
					t.Errorf("submitter %d: request %d refused", g, i)
					return
				}
				<-req.Done
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a submitter is still waiting after 30 s: a wake was lost")
	}
	exec.Drain()
}

// TestDrainWakesParkedShards: Drain with every shard parked returns
// promptly.
func TestDrainWakesParkedShards(t *testing.T) {
	exec := wallExec(t, 4, ExecConfig{})
	time.Sleep(10 * time.Millisecond)
	done := make(chan struct{})
	go func() { exec.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Drain did not return within 1 s with every shard parked")
	}
}

// TestLatencyOnLifecycleClock: the latency histogram runs on the
// flight chains' clock — under WallClock one request's sample is its
// record's end-to-end host ns, TS[7]-TS[0].
func TestLatencyOnLifecycleClock(t *testing.T) {
	ring := NewFlightRecorder(8)
	exec := wallExec(t, 1, ExecConfig{DeadlineNS: -1, Flight: ring})
	submit(t, exec, &Request{Op: OpSet, Key: []byte("k"), Value: []byte("v")})
	exec.Drain()
	recs := ring.Snapshot()
	lat := exec.Snapshot().Latency
	if len(recs) != 1 || lat.Count() != 1 {
		t.Fatalf("%d flight records, %d latency samples; want 1 each", len(recs), lat.Count())
	}
	if e2e := recs[0].TS[7] - recs[0].TS[0]; lat.Max() != e2e {
		t.Fatalf("latency sample %d ns, flight chain end-to-end %d ns", lat.Max(), e2e)
	}
}
