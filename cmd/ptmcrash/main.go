// Command ptmcrash is the crash-consistency test tool. It has three
// modes:
//
//	-exhaustive  — model checking: enumerate a crash at every persist
//	               boundary the workload emits, layer adversarial
//	               WPQ-drop / early-eviction / torn-write variants at
//	               each, recover, and validate against the
//	               durable-linearizability oracle.
//	-fuzz        — sample random persist boundaries (full variant sweep
//	               at each) until -seconds expires.
//	-replay      — re-execute a saved repro file.
//
// Exhaustive and fuzz modes print a one-line JSON summary on stdout
// and exit non-zero if any violation was found; -shrink reduces the
// first violation to a minimal repro and writes it to -repro. With no
// mode flag ptmcrash prints its usage and exits 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"goptm/internal/core"
	"goptm/internal/crashcheck"
	"goptm/internal/durability"
	"goptm/internal/runner"
)

// summary is the machine-readable result line.
type summary struct {
	Mode       string `json:"mode"`
	Configs    int    `json:"configs"`
	Events     int    `json:"events"`
	Points     int    `json:"points"`
	Variants   int    `json:"variants"`
	Faults     int    `json:"faults_injected"`
	Violations int    `json:"violations"`
	Repro      string `json:"repro,omitempty"`
}

func main() {
	seed := flag.Uint64("seed", 1, "workload determinism seed")
	exhaustive := flag.Bool("exhaustive", false, "check every persist boundary of every selected configuration")
	fuzz := flag.Bool("fuzz", false, "sample random persist boundaries until -seconds expires")
	seconds := flag.Int("seconds", 30, "fuzz: total wall-clock budget across configurations")
	ops := flag.Int("ops", 4, "checker: workload operations per run")
	workloads := flag.String("workload", "counter", "checker workload: counter, transfer, or all")
	algos := flag.String("algo", "all", "algorithm: redo, undo, or all")
	domains := flag.String("domain", "all", "durability domain (by name) or all")
	mutate := flag.String("mutate-drop-fence", "", "elide one named fence site (mutation self-test; the checker should object)")
	replayPath := flag.String("replay", "", "re-execute the repro file at this path and report")
	doShrink := flag.Bool("shrink", false, "shrink the first violation to a minimal repro")
	reproPath := flag.String("repro", "ptmcrash-repro.json", "where -shrink writes the minimal repro")
	jobs := flag.Int("jobs", 0, "checker worker goroutines (0 = GOMAXPROCS)")
	shardSpec := flag.String("shard", "", "check only shard i/n of the crash points (1-based, e.g. 2/4)")
	flag.Parse()

	switch {
	case *replayPath != "":
		os.Exit(replayMode(*replayPath))
	case *exhaustive || *fuzz:
		os.Exit(checkMode(*exhaustive, *workloads, *algos, *domains, *ops, *seed, *mutate,
			*seconds, *doShrink, *reproPath, *jobs, *shardSpec))
	default:
		fmt.Fprintln(os.Stderr, "ptmcrash: choose a mode: -exhaustive, -fuzz, or -replay FILE")
		flag.Usage()
		os.Exit(2)
	}
}

// fail prints an operational error and returns the usage exit code.
func fail(err error) int {
	fmt.Fprintf(os.Stderr, "ptmcrash: %v\n", err)
	return 2
}

// selectAlgos resolves the -algo flag: the two logging algorithms
// (the checker has no HTM oracle), by the paper's names or the
// runtime's ("lazy", "eager").
func selectAlgos(name string) ([]core.Algo, error) {
	switch name {
	case "all":
		return []core.Algo{core.OrecLazy, core.OrecEager}, nil
	case "lazy":
		name = "redo"
	case "eager":
		name = "undo"
	}
	if a, ok := core.ParseAlgo(name); ok && a != core.AlgoHTM {
		return []core.Algo{a}, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (want redo, undo, or all)", name)
}

// selectDomains resolves the -domain flag.
func selectDomains(name string) ([]durability.Domain, error) {
	if name == "all" {
		return durability.All(), nil
	}
	d, err := durability.Parse(name)
	if err != nil {
		return nil, err
	}
	return []durability.Domain{d}, nil
}

// selectWorkloads resolves the -workload flag.
func selectWorkloads(name string, seed uint64) ([]crashcheck.Workload, error) {
	if name == "all" {
		name = "counter,transfer"
	}
	var out []crashcheck.Workload
	for _, n := range strings.Split(name, ",") {
		wl, err := crashcheck.Lookup(strings.TrimSpace(n), seed)
		if err != nil {
			return nil, err
		}
		out = append(out, wl)
	}
	return out, nil
}

// checkMode runs the exhaustive or fuzz checker over the selected
// configuration matrix and prints the JSON summary line.
func checkMode(exhaustive bool, workloads, algos, domains string, ops int, seed uint64,
	mutate string, seconds int, doShrink bool, reproPath string, jobs int, shardSpec string) int {
	wls, err := selectWorkloads(workloads, seed)
	if err != nil {
		return fail(err)
	}
	as, err := selectAlgos(algos)
	if err != nil {
		return fail(err)
	}
	ds, err := selectDomains(domains)
	if err != nil {
		return fail(err)
	}
	shard, err := runner.ParseShard(shardSpec)
	if err != nil {
		return fail(err)
	}

	sum := summary{Mode: "exhaustive"}
	if !exhaustive {
		sum.Mode = "fuzz"
	}
	nConfigs := len(wls) * len(as) * len(ds)
	budget := time.Duration(seconds) * time.Second / time.Duration(nConfigs)
	fuzzSeed := seed ^ 0x5EED
	if !exhaustive {
		fmt.Fprintf(os.Stderr, "ptmcrash: fuzz seed=%d fuzzseed=%#x budget=%v/config\n", seed, fuzzSeed, budget)
	}

	var firstOpts crashcheck.Options
	var first *crashcheck.Violation
	for _, wl := range wls {
		for _, algo := range as {
			for _, dom := range ds {
				o := crashcheck.Options{
					Workload: wl, Algo: algo, Domain: dom, Ops: ops,
					MutateDropFence: mutate, Jobs: jobs, Shard: shard,
				}
				var rep *crashcheck.Report
				var err error
				if exhaustive {
					rep, err = crashcheck.Run(o)
				} else {
					rep, err = crashcheck.Fuzz(o, budget, fuzzSeed)
				}
				if err != nil {
					return fail(err)
				}
				sum.Configs++
				sum.Events += rep.Events
				sum.Points += rep.Points
				sum.Variants += rep.Variants
				sum.Faults += rep.FaultsInjected
				sum.Violations += len(rep.Violations)
				for i := range rep.Violations {
					fmt.Fprintf(os.Stderr, "VIOLATION: %s\n", rep.Violations[i].String())
					if first == nil {
						v := rep.Violations[i]
						first, firstOpts = &v, o
					}
				}
			}
		}
	}

	if first != nil && doShrink {
		repro, err := crashcheck.Shrink(firstOpts, first)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ptmcrash: shrink: %v\n", err)
		} else if err := repro.WriteFile(reproPath); err != nil {
			fmt.Fprintf(os.Stderr, "ptmcrash: %v\n", err)
		} else {
			sum.Repro = reproPath
			fmt.Fprintf(os.Stderr, "ptmcrash: minimal repro (ops=%d, %d faults) written to %s\n",
				repro.Ops, len(repro.Faults), reproPath)
		}
	}

	out, _ := json.Marshal(sum)
	fmt.Println(string(out))
	if sum.Violations > 0 {
		return 1
	}
	return 0
}

// replayMode re-executes a saved repro and reports whether it still
// violates (exit 1) or has been fixed (exit 0).
func replayMode(path string) int {
	repro, err := crashcheck.LoadRepro(path)
	if err != nil {
		return fail(err)
	}
	v, err := crashcheck.Replay(repro)
	if err != nil {
		return fail(err)
	}
	if v == nil {
		fmt.Printf("repro %s no longer violates\n", path)
		return 0
	}
	fmt.Printf("reproduced: %s\n", v.String())
	return 1
}
