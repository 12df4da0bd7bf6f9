package main

import (
	"os"
	"testing"
	"time"
)

// TestSmoke runs three seconds of every kv workload (three slices, so
// one stall of this process does not void the open loop), two rounds of
// two sim_sweep cells, and every part of a traced run, against freshly
// built ptmserve and ptmbench.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs under test")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	bins, err := build(true)
	if err != nil {
		t.Fatal(err)
	}
	clean := func(t *testing.T, checks []check) {
		t.Helper()
		if len(checks) == 0 {
			t.Error("the run made no checks")
		}
		for _, c := range checks {
			if c.Bad > 0 || c.Units == 0 {
				t.Errorf("check %s: %d of %d bad: %s", c.Name, c.Bad, c.Units, c.Detail)
			}
		}
	}

	for name, wl := range kvWorkloads {
		t.Run(name, func(t *testing.T) {
			run, err := runKV(bins, t.TempDir(), wl, 1, 3*time.Second, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			clean(t, run.checks)
			e2e := kvE2E(run, map[string]int{})
			for _, m := range []string{"throughput_ops_s", "latency_p50_us", "latency_p99_us", "peak_rss_mb", "setup_s"} {
				if e2e[m].Value <= 0 {
					t.Errorf("%s = %v", m, e2e[m].Value)
				}
			}
		})
	}

	t.Run("sim_sweep", func(t *testing.T) {
		var cells []simCell
		for _, c := range simCells() {
			if c.index == 1 {
				cells = append(cells, c) // the first cell of each figure
			}
		}
		run, err := runSim(bins, t.TempDir(), cells, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		clean(t, run.checks)
		if run.rounds != 2 || len(run.cellNS) != 2*len(cells) {
			t.Errorf("%d rounds, %d cell runs", run.rounds, len(run.cellNS))
		}
		if e2e := simE2E(run, map[string]int{}); e2e["throughput_ops_s"].Value <= 0 {
			t.Errorf("throughput %v", e2e["throughput_ops_s"].Value)
		}
	})

	t.Run("traced", func(t *testing.T) {
		res := &result{Samples: map[string]int{}, Layers: map[string]metric{}}
		run, err := runKV(bins, t.TempDir(), kvWorkloads["kv_write_durable"], 1, time.Second, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		clean(t, run.checks)
		if err := scrapeLayers(res, run); err != nil {
			t.Fatal(err)
		}
		if err := counterLayers(res, bins, t.TempDir()); err != nil {
			t.Fatal(err)
		}
		spans, err := inprocLayers(res, bins, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if len(spans) == 0 {
			t.Error("bench/layers recorded no spans")
		}
		// Every per-layer metric BENCHMARK.json names must be reported.
		spec, err := loadSpec()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range spec.PerLayer {
			if got, ok := res.Layers[m.Name]; !ok {
				t.Errorf("per-layer metric %s not reported", m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s reported in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
			}
		}
		if len(res.Layers) != len(spec.PerLayer) {
			t.Errorf("%d per-layer metrics reported, BENCHMARK.json names %d", len(res.Layers), len(spec.PerLayer))
		}
	})
}
