package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// env is where the suite ran; host-time numbers mean nothing without it.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LoadAvg    string `json:"load_average_at_start"`
	Seconds    int    `json:"seconds_per_workload"`
}

// suiteDoc is DIR/result.json.
type suiteDoc struct {
	Env  env         `json:"env"`
	Runs [][]*result `json:"runs"` // one list of workload results per repeat
}

// runSuite runs every workload, timed (and traced, on the first
// repeat), prints every metric, writes out/result.json, and fails on
// any failed check — or, with -check, on any end-to-end metric
// that two repeats of the same build disagree on by more than its
// bound.
func runSuite(bins binaries, dir string, o options) error {
	loadavg, _ := os.ReadFile("/proc/loadavg") // informational; absent off Linux
	doc := suiteDoc{Env: env{
		NProc: runtime.NumCPU(), GOMAXPROCS: o.childProcs, GoVersion: runtime.Version(),
		LoadAvg: strings.TrimSpace(string(loadavg)), Seconds: int(o.seconds.Seconds()),
	}}
	incorrect := 0
	for r := 0; r < o.repeat; r++ {
		var results []*result
		for _, name := range workloadNames {
			res, err := runWorkload(bins, dir, o.out, name, o.seed, o.seconds, false)
			if err != nil {
				return err
			}
			if o.traced && r == 0 {
				tr, err := runWorkload(bins, dir, o.out, name, o.seed, o.seconds, true)
				if err != nil {
					return err
				}
				res.Layers = tr.Layers
				for name, n := range tr.Samples {
					res.Samples[name] = n
				}
				for _, c := range tr.Checks {
					c.Name = "traced." + c.Name
					res.Checks = append(res.Checks, c)
				}
				finish(res)
			}
			printResult(os.Stdout, res)
			if !res.Correct {
				incorrect++
			}
			results = append(results, res)
		}
		doc.Runs = append(doc.Runs, results)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if incorrect > 0 {
		return fmt.Errorf("%d workload runs had failed operations or checks", incorrect)
	}
	if o.check {
		return agree(doc.Runs)
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec() (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// agree compares every end-to-end metric of every workload across the
// repeats against its bound in BENCHMARK.json.
func agree(runs [][]*result) error {
	if len(runs) < 2 {
		return fmt.Errorf("-check needs -repeat 2 or more")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	outside := 0
	for w := range runs[0] {
		for _, m := range spec.EndToEnd {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, rep := range runs {
				v := rep[w].E2E[m.Name].Value
				lo, hi = min(lo, v), max(hi, v)
			}
			spread := (hi - lo) / lo
			verdict := "ok"
			if !(spread <= m.Bound) {
				verdict = "OUTSIDE"
				outside++
			}
			fmt.Printf("agree %-18s %-18s spread %6.2f%% bound %5.1f%% %s\n", runs[0][w].Workload, m.Name, 100*spread, 100*m.Bound, verdict)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d end-to-end metrics disagreed across repeats by more than their bound", outside)
	}
	return nil
}
