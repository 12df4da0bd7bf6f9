package loadsim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// smallCfg keeps unit runs fast; the CI determinism job runs the
// full-size config through cmd/ptmserve -loadsim.
func smallCfg() Config {
	return Config{
		Shards:   2,
		Keys:     512,
		Requests: 4000,
		Rate:     4e6,
		Seed:     7,
	}
}

func TestRunCompletes(t *testing.T) {
	res, err := Run(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed+res.Shed+res.Rejected != int64(res.Cfg.Requests) {
		t.Fatalf("accounting leak: executed %d + shed %d + rejected %d != %d requests",
			res.Executed, res.Shed, res.Rejected, res.Cfg.Requests)
	}
	if res.Executed == 0 {
		t.Fatal("no requests executed")
	}
	if res.P99 <= 0 {
		t.Fatalf("p99 = %d, want > 0", res.P99)
	}
}

// TestDeterminism: two identical runs must agree bit-for-bit — the
// property the golden hash and the CI byte-compare rest on.
func TestDeterminism(t *testing.T) {
	a, err := Run(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := Report([]Result{a}), Report([]Result{b})
	if ra != rb {
		t.Fatalf("two identical runs diverged:\n%s\nvs\n%s", ra, rb)
	}
}

// TestGoldenHash pins the report bytes of a fixed config. A mismatch
// means the simulated schedule changed — intended changes update the
// constant, everything else is a regression in determinism.
func TestGoldenHash(t *testing.T) {
	results, err := Curve(smallCfg(), []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(Report(results)))
	got := hex.EncodeToString(sum[:])
	const want = "d25a47a0ae4cf4ec75df8c2b9b35d19403df7ab1908edb057d247f8ea393a500"
	if got != want {
		t.Fatalf("golden report hash changed:\n got %s\nwant %s\nreport:\n%s", got, want, Report(results))
	}
}

// TestBatchingReducesTailLatency is the harness's reason to exist: at
// an arrival rate that saturates unbatched commit, coalescing must cut
// p99 service latency.
func TestBatchingReducesTailLatency(t *testing.T) {
	cfg := smallCfg()
	cfg.Rate = 8e6 // well past per-op commit throughput
	results, err := Curve(cfg, []int{1, 16})
	if err != nil {
		t.Fatal(err)
	}
	unbatched, batched := results[0], results[1]
	if batched.MeanBatch < 2 {
		t.Fatalf("high load never filled batches: mean %v", batched.MeanBatch)
	}
	if batched.P99 >= unbatched.P99 {
		t.Fatalf("batching did not cut p99: batch=16 p99 %d >= batch=1 p99 %d",
			batched.P99, unbatched.P99)
	}
}

// TestWindowlessCapMatchesOrBeatsWindowed is the finding the executor's
// lack of a batching controller rests on (docs/SERVING.md, "Why there
// is no controller"): past the knee, a large cap with no window — a
// batch is whatever is queued — is no worse than the tuned windowed
// point, and group commit still halves the unbatched tail.
func TestWindowlessCapMatchesOrBeatsWindowed(t *testing.T) {
	run := func(maxBatch int, windowNS int64) Result {
		t.Helper()
		res, err := Run(Config{
			Rate: 6e6, Requests: 8000, Warmup: 1000, QueueDepth: 1024,
			MaxBatch: maxBatch, BatchWindowNS: windowNS,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	windowless, windowed, unbatched := run(32, -1), run(8, 2000), run(1, 2000)
	if windowless.P99 > windowed.P99 {
		t.Fatalf("cap 32 without a window lost to cap 8 with one: p99 %d > %d", windowless.P99, windowed.P99)
	}
	if 2*windowless.P99 > unbatched.P99 {
		t.Fatalf("group commit stopped paying: cap 32 p99 %d is not under half of cap 1 p99 %d",
			windowless.P99, unbatched.P99)
	}
}
