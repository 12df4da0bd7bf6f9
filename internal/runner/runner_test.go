package runner

import (
	"errors"
	"flag"
	"fmt"
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

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.Begin(1, 1, 1)
	p.Skip(1)
	p.Done("x", 1, 0, "")
	if p.Summary() != "" {
		t.Fatal("nil summary")
	}
	if d, k := p.Counts(); d+k != 0 {
		t.Fatal("nil counts")
	}
}

func TestProgressLines(t *testing.T) {
	var sb strings.Builder
	p := NewProgress(&sb, nil)
	p.Begin(2, 2000, 1)
	p.Skip(3)
	p.Done("a", 1000, 1, "a: 5 ops")
	p.Done("b", 1000, 1, "")
	out := sb.String()
	if !strings.Contains(out, "[1/2] a: 5 ops") || !strings.Contains(out, "[2/2] b: simulated") {
		t.Fatalf("progress output:\n%s", out)
	}
	// The ETA appears once a completed cell has set the virtual-to-wall
	// ratio and work remains; the last cell has nothing left to estimate.
	if lines := strings.Split(out, "\n"); !strings.Contains(lines[0], "(ETA ") || strings.Contains(lines[1], "ETA") {
		t.Fatalf("ETA placement:\n%s", out)
	}
	if d, k := p.Counts(); d != 2 || k != 3 {
		t.Fatalf("counts = %d done, %d skipped", d, k)
	}
	if !strings.HasPrefix(p.Summary(), "2 cells: 2 simulated, 3 skipped in ") {
		t.Fatalf("summary %q", p.Summary())
	}
}

// TestOptionFlags pins what ptmbench and ptmtables each used to spell
// out inline: a bad -shard is an error, -v decides whether progress
// lines reach the writer, and the defaults are the unsharded, all-CPUs
// pool. Exactly three flags: the result cache's three are gone.
func TestOptionFlags(t *testing.T) {
	var names []string
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	OptionFlags(fs)
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if got := strings.Join(names, " "); got != "jobs shard v" {
		t.Fatalf("registered flags = %q, want jobs shard v", got)
	}

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
	if err != nil || opts.Jobs != runtime.GOMAXPROCS(0) || opts.Shard != (Shard{}) {
		t.Fatalf("defaults = %+v, %v", opts, err)
	}
	opts.Progress.Begin(1, 1000, 1)
	opts.Progress.Done("a", 1000, 1, "")
	if sb.Len() != 0 {
		t.Fatalf("progress lines without -v: %q", sb)
	}

	opts, sb, err = parse("-v", "-jobs", "3", "-shard", "2/4")
	if err != nil || opts.Jobs != 3 || opts.Shard != (Shard{Index: 1, Count: 4}) {
		t.Fatalf("-v -jobs 3 -shard 2/4 = %+v, %v", opts, err)
	}
	opts.Progress.Begin(1, 1000, 1)
	opts.Progress.Done("a", 1000, 1, "")
	if !strings.Contains(sb.String(), "[1/1] a: simulated") {
		t.Fatalf("-v progress output: %q", sb)
	}

	if _, _, err := parse("-shard", "5/4"); err == nil {
		t.Fatal("bad -shard accepted")
	}
}
