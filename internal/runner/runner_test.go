package runner

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func squareJobs(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{
			Label:  fmt.Sprintf("job%d", i),
			CostNS: 1000,
			Run:    func() (int, error) { return i * i, nil },
		}
	}
	return jobs
}

func TestRunPreservesJobOrder(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		outs, err := Run(Options{Jobs: workers}, squareJobs(50))
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outs {
			if o.Value != i*i || o.Source != Simulated {
				t.Fatalf("jobs=%d: outs[%d] = %+v", workers, i, o)
			}
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	var cur, peak atomic.Int32
	jobs := make([]Job[int], 32)
	for i := range jobs {
		jobs[i] = Job[int]{Run: func() (int, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			defer cur.Add(-1)
			return 0, nil
		}}
	}
	if _, err := Run(Options{Jobs: 3}, jobs); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d > 3", p)
	}
}

func TestRunReturnsFirstErrorInJobOrder(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	jobs := squareJobs(20)
	jobs[7].Run = func() (int, error) { return 0, errB }
	jobs[3].Run = func() (int, error) { return 0, errA }
	_, err := Run(Options{Jobs: 8}, jobs)
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want first-in-order %v", err, errA)
	}
}

func TestRunStopsSchedulingAfterError(t *testing.T) {
	var ran atomic.Int32
	jobs := make([]Job[int], 1000)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func() (int, error) {
			ran.Add(1)
			if i == 0 {
				return 0, errors.New("boom")
			}
			return 0, nil
		}}
	}
	if _, err := Run(Options{Jobs: 1}, jobs); err == nil {
		t.Fatal("want error")
	}
	if n := ran.Load(); n > 2 {
		t.Fatalf("ran %d jobs after failure", n)
	}
}

func TestShard(t *testing.T) {
	jobs := squareJobs(10)
	outs, err := Run(Options{Jobs: 2, Shard: Shard{Index: 1, Count: 3}}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if i%3 == 1 {
			if o.Source != Simulated || o.Value != i*i {
				t.Fatalf("owned job %d: %+v", i, o)
			}
		} else if o.Source != Skipped || o.Value != 0 {
			t.Fatalf("foreign job %d: %+v", i, o)
		}
	}
	// Every job is owned by exactly one shard.
	for i := 0; i < 10; i++ {
		owners := 0
		for s := 0; s < 3; s++ {
			if (Shard{Index: s, Count: 3}).Owns(i) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("job %d has %d owners", i, owners)
		}
	}
}

func TestParseShard(t *testing.T) {
	s, err := ParseShard("2/3")
	if err != nil || s != (Shard{Index: 1, Count: 3}) {
		t.Fatalf("ParseShard(2/3) = %+v, %v", s, err)
	}
	if s.String() != "2/3" {
		t.Fatalf("String() = %q", s.String())
	}
	if s, err := ParseShard(""); err != nil || s != (Shard{}) {
		t.Fatalf("empty spec: %+v, %v", s, err)
	}
	for _, bad := range []string{"0/3", "4/3", "x/y", "1", "1/0"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

type fakeResult struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

func TestCacheHitMissInvalidate(t *testing.T) {
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key := KeyJSON(struct {
		Sim  int    `json:"sim"`
		Cell string `json:"cell"`
	}{1, "Optane_ADR_R"})

	var out fakeResult
	if c.Get(key, &out) {
		t.Fatal("hit on empty cache")
	}
	want := fakeResult{Name: "x", Score: 1.5}
	if err := c.Put(key, &want); err != nil {
		t.Fatal(err)
	}
	if !c.Get(key, &out) || out != want {
		t.Fatalf("after put: got %+v", out)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	// A different key misses.
	if c.Get(KeyJSON(struct {
		Sim  int    `json:"sim"`
		Cell string `json:"cell"`
	}{2, "Optane_ADR_R"}), &out) {
		t.Fatal("hit on different sim version")
	}
	if err := c.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 || c.Get(key, &out) {
		t.Fatal("entry survived Invalidate")
	}
	hits, misses, stores := c.Stats()
	if hits != 1 || misses != 3 || stores != 1 {
		t.Fatalf("stats = %d/%d/%d", hits, misses, stores)
	}
}

func TestCacheRejectsCorruptAndMismatched(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyJSON(map[string]int{"k": 1})
	if err := c.Put(key, &fakeResult{Name: "ok"}); err != nil {
		t.Fatal(err)
	}
	path := c.path(key)
	// Truncated file reads as a miss.
	if err := os.WriteFile(path, []byte(`{"config":`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out fakeResult
	if c.Get(key, &out) {
		t.Fatal("hit on corrupt entry")
	}
	// An entry whose embedded config doesn't match the key (hash
	// collision or hand-edited file) reads as a miss.
	if err := os.WriteFile(path, []byte(`{"config":{"k":2},"result":{"name":"evil"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if c.Get(key, &out) {
		t.Fatal("hit on mismatched config")
	}
}

func TestRunWithCache(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var sims atomic.Int32
	mk := func() []Job[fakeResult] {
		jobs := make([]Job[fakeResult], 8)
		for i := range jobs {
			i := i
			jobs[i] = Job[fakeResult]{
				Key:    KeyJSON(map[string]int{"cell": i}),
				CostNS: 100,
				Run: func() (fakeResult, error) {
					sims.Add(1)
					return fakeResult{Name: fmt.Sprintf("c%d", i), Score: float64(i)}, nil
				},
			}
		}
		return jobs
	}
	cold, err := Run(Options{Jobs: 4, Cache: c}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if sims.Load() != 8 {
		t.Fatalf("cold run simulated %d", sims.Load())
	}
	p := NewProgress(nil, nil)
	warm, err := Run(Options{Jobs: 4, Cache: c, Progress: p}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if sims.Load() != 8 {
		t.Fatalf("warm run re-simulated: %d total", sims.Load())
	}
	for i := range warm {
		if warm[i].Source != CacheHit || warm[i].Value != cold[i].Value {
			t.Fatalf("warm[%d] = %+v, cold %+v", i, warm[i], cold[i])
		}
	}
	done, simulated, hits, skipped := p.Counts()
	if done != 8 || simulated != 0 || hits != 8 || skipped != 0 {
		t.Fatalf("counts = %d/%d/%d/%d", done, simulated, hits, skipped)
	}
	if !strings.Contains(p.Summary(), "0 simulated") {
		t.Fatalf("summary %q", p.Summary())
	}
}

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.Begin(1, 1, 1)
	p.Skip(1)
	p.Done("x", Simulated, 1, 0, "")
	if p.Summary() != "" {
		t.Fatal("nil summary")
	}
	d, s, h, k := p.Counts()
	if d+s+h+k != 0 {
		t.Fatal("nil counts")
	}
}

func TestProgressLines(t *testing.T) {
	var sb strings.Builder
	p := NewProgress(&sb, nil)
	p.Begin(2, 2000, 1)
	p.Done("a", Simulated, 1000, 1, "a: 5 ops")
	p.Done("b", CacheHit, 1000, 0, "")
	out := sb.String()
	if !strings.Contains(out, "[1/2] a: 5 ops") || !strings.Contains(out, "[2/2] b: cached") {
		t.Fatalf("progress output:\n%s", out)
	}
}

// TestOptionFlags pins what ptmbench and ptmtables each used to spell
// out inline: -cache-invalidate alone opens (and empties) the cache, a
// bad -shard is an error, -v decides whether progress lines reach the
// writer, and the defaults are the uncached, unsharded, all-CPUs pool.
func TestOptionFlags(t *testing.T) {
	parse := func(args ...string) (Options, *strings.Builder, error) {
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		build := OptionFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatalf("parse %v: %v", args, err)
		}
		var sb strings.Builder
		opts, err := build(&sb, nil)
		return opts, &sb, err
	}

	opts, sb, err := parse()
	if err != nil || opts.Jobs != runtime.GOMAXPROCS(0) || opts.Cache != nil || opts.Shard != (Shard{}) {
		t.Fatalf("defaults = %+v, %v", opts, err)
	}
	opts.Progress.Begin(1, 1000, 1)
	opts.Progress.Done("a", Simulated, 1000, 1, "")
	if sb.Len() != 0 {
		t.Fatalf("progress lines without -v: %q", sb)
	}

	opts, sb, err = parse("-v", "-jobs", "3", "-shard", "2/4")
	if err != nil || opts.Jobs != 3 || opts.Shard != (Shard{Index: 1, Count: 4}) {
		t.Fatalf("-v -jobs 3 -shard 2/4 = %+v, %v", opts, err)
	}
	opts.Progress.Begin(1, 1000, 1)
	opts.Progress.Done("a", Simulated, 1000, 1, "")
	if !strings.Contains(sb.String(), "[1/1] a: simulated") {
		t.Fatalf("-v progress output: %q", sb)
	}

	// A stale entry in the directory: -cache keeps it, -cache-invalidate
	// (with no -cache) opens the same cache and drops it.
	dir := filepath.Join(t.TempDir(), "cache")
	seed, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Put(KeyJSON("k"), &fakeResult{Name: "stale"}); err != nil {
		t.Fatal(err)
	}
	if opts, _, err = parse("-cache", "-cachedir", dir); err != nil || opts.Cache == nil || opts.Cache.Len() != 1 {
		t.Fatalf("-cache: %+v, %v", opts, err)
	}
	if opts, _, err = parse("-cache-invalidate", "-cachedir", dir); err != nil || opts.Cache == nil || opts.Cache.Dir() != dir || opts.Cache.Len() != 0 {
		t.Fatalf("-cache-invalidate alone: %+v, %v", opts, err)
	}

	if _, _, err := parse("-shard", "5/4"); err == nil {
		t.Fatal("bad -shard accepted")
	}
}
