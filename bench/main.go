// Command bench is the repository's wall-clock benchmark: what a
// ptmserve client and a ptmbench user see, end to end, and what each
// layer under them costs. It builds cmd/ptmserve and cmd/ptmbench,
// runs them as child processes, and — in this package — imports
// nothing of theirs, so it keeps compiling while they are refactored.
// Only the separate bench/layers program, which a traced run builds
// and calls, links against goptm/internal.
//
// The driver's form, one workload per call, one JSON line last:
//
//	bash bench/run.sh --workload kv_read_mostly --seed 3 --seconds 10 --trace 0
//
// The whole suite, written to DIR/result.json (and, traced, one
// DIR/trace-<workload>.json each):
//
//	bash bench/run.sh -seed 1 -out DIR [-traced] [-repeat 2 -check]
//
// See bench/README.md for the workloads, the metrics and the surface
// of the program this benchmark depends on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

// workloadNames is the suite, in run order.
var workloadNames = []string{"kv_write_durable", "kv_read_mostly", "kv_paced", "sim_sweep"}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness verdict of a run: Bad of Units things
// checked were wrong. Every run's attempted and failed counts are the
// sums of its checks' Units and Bad.
type check struct {
	Name   string `json:"name"`
	Units  int    `json:"units"`
	Bad    int    `json:"bad"`
	Detail string `json:"detail"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	E2E       map[string]metric `json:"e2e,omitempty"`
	Layers    map[string]metric `json:"layers,omitempty"`
	Samples   map[string]int    `json:"samples"`
	Checks    []check           `json:"checks"`
}

// binaries are the programs under test, built from this checkout.
type binaries struct{ ptmserve, ptmbench, layers string }

// options are the command line.
type options struct {
	workload string // empty: the suite
	seed     uint64
	seconds  time.Duration
	trace    bool // with workload: the traced run, per-layer metrics
	traced   bool // suite: traced runs too
	out      string
	repeat   int
	check    bool

	childProcs int // GOMAXPROCS as the programs under test inherit it
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the driver's JSON line last; empty runs the suite")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same requests")
	seconds := flag.Int("seconds", 15, "measured interval per workload, seconds")
	trace := flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.BoolVar(&o.traced, "traced", false, "suite: follow each workload's timed run with its traced run")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for result.json and trace-<workload>.json, relative to the checkout root")
	flag.IntVar(&o.repeat, "repeat", 1, "suite: run the timed suite this many times on the same build")
	flag.BoolVar(&o.check, "check", false, "suite, with -repeat 2 or more: fail unless every end-to-end metric agrees across repeats within its BENCHMARK.json bound")
	flag.Parse()
	o.seconds, o.trace = time.Duration(*seconds)*time.Second, *trace == 1

	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	// An open-loop sender that wakes must never queue for a Go P behind
	// a reader or a scrape (the runtime hands Ps over in 10 ms slices);
	// with Ps to spare, the kernel schedules the sender at once.
	o.childProcs = runtime.GOMAXPROCS(max(runtime.NumCPU(), 8))
	root, err := findRoot()
	if err != nil {
		return err
	}
	if err := os.Chdir(root); err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	buildStart := time.Now()
	bins, err := build(o.trace || o.traced)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: go build took %.2f s (not part of setup_s)\n", time.Since(buildStart).Seconds())

	// Scratch for images, journals and CSVs; inside the checkout, gone
	// when the run ends.
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	if o.workload != "" {
		res, err := runWorkload(bins, dir, o.out, o.workload, o.seed, o.seconds, o.trace)
		if err != nil {
			return err
		}
		printResult(os.Stderr, res)
		return emitDriverLine(res, o.trace)
	}
	return runSuite(bins, dir, o)
}

// findRoot walks up from the working directory to the checkout root,
// recognised by BENCHMARK.json next to cmd/ptmserve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "ptmserve")); err != nil {
				return "", fmt.Errorf("%s has BENCHMARK.json but no cmd/ptmserve: the program under test is missing", dir)
			}
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in any parent directory: run from inside a checkout")
		}
		dir = parent
	}
}

// build compiles the programs under test into .bench_build/bin.
func build(withLayers bool) (binaries, error) {
	bin, err := filepath.Abs(filepath.Join(".bench_build", "bin"))
	if err != nil {
		return binaries{}, err
	}
	type step struct {
		dir  string
		args []string
	}
	steps := []step{{".", []string{"build", "-o", bin + string(filepath.Separator), "./cmd/ptmserve", "./cmd/ptmbench"}}}
	if withLayers {
		steps = append(steps, step{"bench", []string{"build", "-o", filepath.Join(bin, "layers"), "./layers"}})
	}
	for _, s := range steps {
		cmd := exec.Command("go", s.args...)
		cmd.Dir = s.dir
		if outp, err := cmd.CombinedOutput(); err != nil {
			return binaries{}, fmt.Errorf("go %v: %v\n%s", s.args, err, outp)
		}
	}
	return binaries{
		ptmserve: filepath.Join(bin, "ptmserve"),
		ptmbench: filepath.Join(bin, "ptmbench"),
		layers:   filepath.Join(bin, "layers"),
	}, nil
}

// emitDriverLine prints the one JSON object the benchmark driver reads
// from the last line of standard output, and fails the process when
// the run was not correct.
func emitDriverLine(res *result, trace bool) error {
	metrics := res.E2E
	if trace {
		metrics = res.Layers
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations or checks failed", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}
