package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"goptm/bench/quant"
	"goptm/bench/sysprobe"
)

// A traced run reports the per-layer metrics. It is separate from the
// timed run and claims nothing about speed; it has three parts:
//
//   - scrape: the workload again, shorter, against a ptmserve with its
//     telemetry listener on, reading /snapshot, /proc and the journal's
//     size at both ends of the window and timing the restart after
//     SIGKILL. sim_sweep has no server, so its traced run scrapes
//     kv_write_durable — every traced run reports the whole set.
//   - counters: one quarter of Figure 4 (its eight 16-thread cells)
//     with -metricsjson, for the modelled components' counts; lockstep
//     makes them repeat exactly.
//   - layers: the bench/layers program — replay, serving probe and
//     component probes in-process, with a span around every call.
const (
	scrapeSeconds = 8 * time.Second // eight slices: the open-loop schedule check needs most of them clean
	counterShard  = "3/4"           // Figure 4 cells are curve-major over threads {1,4,16,32}
)

// span is one timed step, as bench/layers emits them.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// phases records the traced run's own steps as root spans.
type phases struct {
	t0    time.Time
	spans []span
}

func (p *phases) time(name string, step func() error) error {
	start := time.Since(p.t0).Nanoseconds()
	err := step()
	p.spans = append(p.spans, span{name, start, time.Since(p.t0).Nanoseconds(), -1})
	return err
}

func runTraced(res *result, bins binaries, dir, out, name string, seed uint64) error {
	scrapeName := name
	if name == "sim_sweep" {
		scrapeName = "kv_write_durable"
	}
	wl, ok := kvWorkloads[scrapeName]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	res.Layers = map[string]metric{}
	ph := &phases{t0: time.Now()}

	err := ph.time("scrape "+scrapeName, func() error {
		run, err := runKV(bins, dir, wl, seed, scrapeSeconds, 1, true)
		if err != nil {
			return err
		}
		res.Checks = append(res.Checks, run.checks...)
		return scrapeLayers(res, run)
	})
	if err != nil {
		return err
	}
	if err := ph.time("counters fig4 "+counterShard, func() error { return counterLayers(res, bins, dir) }); err != nil {
		return err
	}
	var inproc []span
	err = ph.time("layers", func() error {
		inproc, err = inprocLayers(res, bins, dir)
		return err
	})
	if err != nil {
		return err
	}
	layersStart := ph.spans[len(ph.spans)-1].StartNS
	return writeTrace(filepath.Join(out, "trace-"+name+".json"), ph.spans, inproc, layersStart)
}

// scrapeServer reads the server-side state at one end of a traced
// window.
func scrapeServer(srv *server, image string) (*scrape, error) {
	snap, err := sysprobe.FetchSnapshot(srv.telemetry)
	if err != nil {
		return nil, err
	}
	switches, err := sysprobe.ProcVoluntarySwitches(srv.pid())
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(image + ".wal")
	if err != nil {
		return nil, err
	}
	return &scrape{snap, switches, fi.Size()}, nil
}

// setLayer records one per-layer metric and the sample count behind it.
func (res *result) setLayer(name string, v float64, unit string, n float64) {
	res.Layers[name] = metric{v, unit}
	res.Samples[name] = int(n)
}

// geoMean is the geometric mean of positive values.
func geoMean(values []float64) float64 {
	sum := 0.0
	for _, v := range values {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(values)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scrapeLayers turns the two ends of a scraped window into the
// count-based serving metrics.
func scrapeLayers(res *result, run *kvRun) error {
	b, e := run.begin, run.end
	delta := func(name string) float64 { return float64(e.snap.Counters[name] - b.snap.Counters[name]) }
	requests, acked := delta("srv_requests"), float64(run.ackedSets)
	if requests == 0 || acked == 0 {
		return fmt.Errorf("scrape: the server counted %v requests and the client %v acked sets in the window", requests, acked)
	}
	barriers := float64(e.snap.AckBarrier.Count - b.snap.AckBarrier.Count)
	flushes := float64(e.snap.JournalFlush.Count - b.snap.JournalFlush.Count)
	set := res.setLayer
	set("executor.batch_size_mean", ratio(delta("srv_batched_ops"), delta("srv_batches")), "count", delta("srv_batches"))
	set("executor.shed_share", delta("srv_shed")/requests, "ratio", requests)
	set("server.cpu_us_per_req", float64(run.serverCPU.Microseconds())/requests, "us", requests)
	set("executor.ctx_switches_per_req", float64(e.switches-b.switches)/requests, "count", requests)
	set("store.ack_barrier_us_mean", ratio(float64(e.snap.AckBarrier.SumNS-b.snap.AckBarrier.SumNS)/1e3, barriers), "us", barriers)
	set("journal.flush_us_mean", ratio(float64(e.snap.JournalFlush.SumNS-b.snap.JournalFlush.SumNS)/1e3, flushes), "us", flushes)
	set("journal.frames_per_acked_write", flushes/acked, "count", acked)
	set("journal.wal_bytes_per_acked_write", float64(e.walBytes-b.walBytes)/acked, "B", acked)
	set("journal.replay_s", run.restartS, "s", 1)
	set("journal.replay_mb_per_s", float64(run.walBytes)/1e6/run.restartS, "MB/s", 1)
	_, lateP99 := sliced(run.lateAtNS, run.lateNS, run.window, 99)
	set("loadgen.lateness_p99_us", quant.MidMean(lateP99), "us", float64(len(run.lateNS)))
	set("loadgen.outstanding_max", float64(run.maxOut), "count", 1)
	set("loadgen.cpu_share", ratio(run.ownCPU.Seconds(), (run.ownCPU+run.serverCPU).Seconds()), "ratio", 1)
	return nil
}

// counterLayers runs the Figure 4 quarter with the counter registry on
// and reads the modelled components' counts.
func counterLayers(res *result, bins binaries, dir string) error {
	report := filepath.Join(dir, "counters.json")
	csvPath := filepath.Join(dir, "counters.csv")
	os.Remove(csvPath) // ptmbench appends
	cmd := exec.Command(bins.ptmbench, "-fig", "4", "-jobs", "1", "-shard", counterShard, "-metricsjson", report, "-csv", csvPath)
	if outp, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("ptmbench -metricsjson: %v: %s", err, bytes.TrimSpace(outp))
	}
	data, err := os.ReadFile(report)
	if err != nil {
		return err
	}
	c, err := sysprobe.SumMetricsReport(data)
	if err != nil {
		return err
	}
	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		return err
	}
	cells, err := sysprobe.ParseSweepCSV(csvData)
	if err != nil {
		return err
	}
	rates := make([]float64, len(cells))
	for i, cell := range cells {
		rates[i] = cell.Rate
	}
	f := func(name string) float64 { return float64(c[name]) }
	set := res.setLayer
	attempts := f("commits") + f("aborts")
	accesses := f("cache_hit_l1") + f("cache_hit_l2") + f("cache_hit_l3") + f("cache_misses")
	set("core.commits_fig4_16t", f("commits"), "count", float64(len(rates)))
	set("core.abort_share", ratio(f("aborts"), attempts), "ratio", attempts)
	set("core.log_bytes_per_commit", ratio(f("log_bytes"), f("commits")), "B", f("commits"))
	set("cachesim.hit_rate", ratio(accesses-f("cache_misses"), accesses), "ratio", accesses)
	set("wpq.stall_ns_per_accept", ratio(f("wpq_stall_ns"), f("wpq_accepts")), "sim-ns", f("wpq_accepts"))
	set("wpq.max_occupancy", f("wpq_max_occupancy"), "count", f("wpq_accepts"))
	// XPLines are 256 B, stores 8 B: media bytes written per byte stored.
	set("media.write_xplines_per_commit", ratio(f("media_write_xplines"), f("commits")), "count", f("commits"))
	set("media.write_amp", ratio(256*f("media_write_xplines"), 8*f("nvm_stores")), "ratio", f("nvm_stores"))
	set("sim.txn_per_vsec", geoMean(rates), "1/s", float64(len(rates)))
	return nil
}

// inprocLayers runs bench/layers and merges its metrics.
func inprocLayers(res *result, bins binaries, dir string) ([]span, error) {
	cmd := exec.Command(bins.layers, "-dir", dir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	outp, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench/layers: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var doc struct {
		Metrics map[string]metric `json:"metrics"`
		Samples map[string]int    `json:"samples"`
		Spans   []span            `json:"spans"`
	}
	if err := json.Unmarshal(outp, &doc); err != nil {
		return nil, fmt.Errorf("bench/layers: %w", err)
	}
	for name, m := range doc.Metrics {
		res.Layers[name] = m
		res.Samples[name] = doc.Samples[name]
	}
	return doc.Spans, nil
}

// writeTrace writes every span once, in Chrome trace-event form: the
// traced run's own phases on thread 0, the in-process spans on thread
// 1, shifted to when bench/layers started. args.parent is the index of
// the enclosing span within its thread, -1 for a root.
func writeTrace(path string, roots, inproc []span, inprocStartNS int64) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var events []event
	add := func(tid int, offset int64, spans []span) {
		for _, s := range spans {
			events = append(events, event{s.Name, "X", float64(offset+s.StartNS) / 1e3,
				float64(s.EndNS-s.StartNS) / 1e3, 1, tid, map[string]int{"parent": s.Parent}})
		}
	}
	add(0, 0, roots)
	add(1, inprocStartNS, inproc)
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
