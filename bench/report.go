package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"goptm/bench/quant"
)

// runWorkload runs one workload once — timed, or traced — and turns
// what it measured into named metrics.
func runWorkload(bins binaries, dir, out, name string, seed uint64, seconds time.Duration, trace bool) (*result, error) {
	res := &result{Workload: name, Seed: seed, Samples: map[string]int{}}
	if trace {
		if err := runTraced(res, bins, dir, out, name, seed); err != nil {
			return nil, err
		}
		finish(res)
		return res, nil
	}
	if name == "sim_sweep" {
		run, err := runSim(bins, dir, simCells(), seed, seconds)
		if err != nil {
			return nil, err
		}
		res.E2E = simE2E(run, res.Samples)
		res.Checks = run.checks
	} else {
		wl, ok := kvWorkloads[name]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
		}
		run, err := runKV(bins, dir, wl, seed, seconds, setupRounds, false)
		if err != nil {
			return nil, err
		}
		res.E2E = kvE2E(run, res.Samples)
		res.Checks = run.checks
	}
	finish(res)
	return res, nil
}

// finish totals the checks into the run's verdict.
func finish(res *result) {
	res.Attempted, res.Failed = 0, 0
	for _, c := range res.Checks {
		res.Attempted += c.Units
		res.Failed += c.Bad
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
}

// The kv metrics are interquartile means over the window's one-second
// slices: each slice yields one throughput and one latency percentile,
// and the run reports the mean of the middle half of them. A hiccup (a
// GC cycle, a neighbour on the host, a slow regime of the server's
// pollers) then moves a slice that is dropped, not the run; and where
// latencies come in steps of the server's idle sleep, so that a
// slice's p50 is one of two neighbouring steps, the mean moves
// smoothly where a median of slices would jump. Ten runs of each of
// kv_paced and kv_write_durable, compared on the same samples: the
// spread of p99 fell from 16 % and 5.5 % (median over 3 s slices) to
// 6.6 % and 2.6 %. The slowest workload's 1000 replies a second still
// put ten beyond a slice's p99.
const slice = time.Second

// slicing cuts window into n equal slices of about a second and returns
// how to find the slice an offset from the window's start falls in.
// An offset past the window's end — the reply to an open-loop request
// due inside it — belongs to the last slice.
func slicing(window time.Duration) (n int, sliceOf func(atNS int64) int) {
	n = max(int(window/slice), 1)
	each := (window / time.Duration(n)).Nanoseconds()
	return n, func(atNS int64) int { return min(max(int(atNS/each), 0), n-1) }
}

// sliced buckets replies by arrival into the window's slices and
// returns each slice's throughput (replies per second) and its p-th
// latency percentile (microseconds).
func sliced(atNS, latNS []int64, window time.Duration, p float64) (thr, pct []float64) {
	n, sliceOf := slicing(window)
	buckets := make([][]int64, n)
	for i, at := range atNS {
		buckets[sliceOf(at)] = append(buckets[sliceOf(at)], latNS[i])
	}
	seconds := window.Seconds() / float64(n)
	for _, lat := range buckets {
		thr = append(thr, float64(len(lat))/seconds)
		if len(lat) > 0 {
			pct = append(pct, float64(quant.Percentile(lat, p))/1e3)
		}
	}
	return thr, pct
}

// kvE2E names what a ptmserve client saw. Every metric is defined on
// every workload so the driver can compare any pair of runs.
func kvE2E(run *kvRun, samples map[string]int) map[string]metric {
	ops := len(run.latNS)
	if ops == 0 {
		return nil
	}
	thr, p50 := sliced(run.atNS, run.latNS, run.window, 50)
	_, p99 := sliced(run.atNS, run.latNS, run.window, 99)
	for _, name := range []string{"throughput_ops_s", "latency_p50_us", "latency_p99_us"} {
		samples[name] = ops
	}
	samples["latency_p99_us.beyond_per_slice"] = quant.Beyond(ops/max(len(p99), 1), 99)
	samples["setup_s"] = len(run.setups)
	return map[string]metric{
		"throughput_ops_s": {quant.MidMean(thr), "ops/s"},
		"latency_p50_us":   {quant.MidMean(p50), "us"},
		"latency_p99_us":   {quant.MidMean(p99), "us"},
		"peak_rss_mb":      {float64(run.peakRSS) / 1024, "MiB"},
		"setup_s":          {quant.Median(run.setups), "s"},
	}
}

// simE2E names what a ptmbench user saw: one operation is one sweep
// cell, so throughput is cells per host second and latency is a
// cell's host time.
func simE2E(run *simRun, samples map[string]int) map[string]metric {
	cells := len(run.cellNS)
	if cells == 0 {
		return nil
	}
	for _, name := range []string{"throughput_ops_s", "latency_p50_us", "latency_p99_us"} {
		samples[name] = cells
	}
	samples["latency_p99_us.beyond"] = quant.Beyond(cells, 99)
	samples["peak_rss_mb"] = len(run.peakRSS)
	samples["setup_s"] = len(run.setups)
	return map[string]metric{
		"throughput_ops_s": {float64(cells) / run.interval.Seconds(), "ops/s"},
		"latency_p50_us":   {float64(quant.Percentile(run.cellNS, 50)) / 1e3, "us"},
		"latency_p99_us":   {float64(quant.Percentile(run.cellNS, 99)) / 1e3, "us"},
		"peak_rss_mb":      {quant.Median(run.peakRSS) / 1024, "MiB"},
		"setup_s":          {quant.Median(run.setups), "s"},
	}
}

// printResult lists every metric by name with its unit and, where one
// was counted, its sample count.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "%s seed=%d correct=%v attempted=%d failed=%d\n", res.Workload, res.Seed, res.Correct, res.Attempted, res.Failed)
	for _, group := range []map[string]metric{res.E2E, res.Layers} {
		names := make([]string, 0, len(group))
		for name := range group {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := group[name]
			fmt.Fprintf(w, "  %-36s %16.4f %-10s", name, m.Value, m.Unit)
			if n, ok := res.Samples[name]; ok {
				fmt.Fprintf(w, " n=%d", n)
			}
			fmt.Fprintln(w)
		}
	}
	for _, c := range res.Checks {
		verdict := "ok"
		if c.Bad > 0 {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  check %-20s %s (%d/%d bad) %s\n", c.Name, verdict, c.Bad, c.Units, c.Detail)
	}
}
