package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"goptm/bench/loadgen"
	"goptm/bench/quant"
	"goptm/bench/sysprobe"
)

// kvWorkload is one serving workload: the traffic and the ptmserve
// flags it runs against (on top of -listen, -image and the defaults).
type kvWorkload struct {
	spec  loadgen.Spec
	flags []string
}

// The keyspace is the loadsim/BENCH_9 traffic shape: 4096 keys of 64
// bytes, all preloaded, so steady state overwrites and never inserts.
const (
	kvKeys      = 4096
	kvValueSize = 64
)

var kvWorkloads = map[string]kvWorkload{
	"kv_write_durable": {
		spec: loadgen.Spec{Keys: kvKeys, ValueSize: kvValueSize, Conns: 2, Depth: 16},
	},
	"kv_read_mostly": {
		spec:  loadgen.Spec{Keys: kvKeys, ValueSize: kvValueSize, Conns: 2, Depth: 16, GetShare: 0.95, Zipf: 0.99},
		flags: []string{"-shards", "1"},
	},
	"kv_paced": {
		spec: loadgen.Spec{Keys: kvKeys, ValueSize: kvValueSize, Conns: 4, GetShare: 0.5, RateHz: 1000, MaxOut: 128},
	},
}

const (
	// maxLatenessP99 marks a slice of an open-loop window whose
	// generator, not the server, shaped the latencies. Five send periods:
	// on two cores shared with a polling server the sender's p99 lateness
	// is already 0.7–1.1 ms, against server latencies of 10–70 ms.
	maxLatenessP99 = 5 * time.Millisecond
	warmup         = 2 * time.Second
	setupRounds    = 3 // set-ups per run; setup_s is their median
)

// kvRun is everything one kv run measured, before it is turned into
// named metrics.
type kvRun struct {
	window    time.Duration
	atNS      []int64 // correct replies inside the window: arrival, from the window's start
	latNS     []int64 // and latency, entry for entry
	checks    []check
	serverCPU time.Duration // ptmserve utime+stime over the window
	ownCPU    time.Duration // this process over the window
	peakRSS   int64         // KiB, ptmserve VmHWM at the window's end
	setups    []float64     // seconds, one per set-up round
	lateNS    []int64       // generator lateness per request
	lateAtNS  []int64       // and where in the window it belongs, entry for entry
	capAtNS   []int64       // open loop: where a send found the in-flight cap reached
	maxOut    int

	ackedSets int64 // sets acked inside the window
	restartS  float64
	walBytes  int64 // journal size the restart replayed

	begin, end *scrape // traced runs only
}

// scrape is the server-side state read at one end of a traced window.
type scrape struct {
	snap     *sysprobe.Snapshot
	switches int64
	walBytes int64
}

// runKV sets the server up rounds times (keeping the last), runs
// wl's traffic for a warm-up plus seconds, then kills the server under
// load, restarts it on the same image and reads every key back. With
// telemetry set, ptmserve runs with its telemetry listener and the
// window's two ends are scraped.
func runKV(bins binaries, dir string, wl kvWorkload, seed uint64, seconds time.Duration, rounds int, telemetry bool) (*kvRun, error) {
	run := &kvRun{window: seconds}
	image := filepath.Join(dir, "kv.img")
	args := append([]string{"-image", image}, wl.flags...)
	if telemetry {
		args = append(args, "-telemetry", "127.0.0.1:0")
	}

	var srv *server
	for round := 0; round < rounds; round++ {
		if srv != nil {
			srv.kill()
		}
		if err := removeImage(image); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if srv, err = startServer(bins.ptmserve, args...); err != nil {
			return nil, err
		}
		if err := loadgen.Preload(srv.addr, wl.spec); err != nil {
			srv.kill()
			return nil, fmt.Errorf("preload: %w", err)
		}
		run.setups = append(run.setups, time.Since(start).Seconds())
	}
	defer func() { srv.kill() }()

	clients := make([]*loadgen.Client, wl.spec.Conns)
	for i := range clients {
		c, err := loadgen.Dial(srv.addr, wl.spec, seed, i)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[i] = c
	}

	start := time.Now()
	win := loadgen.Window{Start: start.Add(warmup), End: start.Add(warmup + seconds)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *loadgen.Client) {
			defer wg.Done()
			if wl.spec.RateHz > 0 {
				// Connections interleave: together they send one request
				// every 1/RateHz.
				c.RunOpen(start.Add(time.Duration(float64(i)*float64(time.Second)/wl.spec.RateHz)), win)
			} else {
				c.RunClosed(win, stop)
			}
		}(i, c)
	}

	time.Sleep(time.Until(win.Start))
	cpu0, err := sysprobe.ProcCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	own0 := sysprobe.SelfCPU()
	if telemetry {
		if run.begin, err = scrapeServer(srv, image); err != nil {
			return nil, err
		}
	}
	time.Sleep(time.Until(win.End))
	if telemetry {
		if run.end, err = scrapeServer(srv, image); err != nil {
			return nil, err
		}
	}
	cpu1, err := sysprobe.ProcCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	run.serverCPU, run.ownCPU = cpu1-cpu0, sysprobe.SelfCPU()-own0
	if run.peakRSS, err = sysprobe.ProcPeakRSS(srv.pid()); err != nil {
		return nil, err
	}

	// The open loop has stopped sending at win.End and only drains; the
	// closed loop is still at full depth, so the kill lands under load.
	if wl.spec.RateHz > 0 {
		wg.Wait()
	}
	srv.kill()
	close(stop)
	wg.Wait()

	replies := check{Name: "replies", Detail: "every reply exact"}
	for _, c := range clients {
		res := c.Result()
		run.atNS = append(run.atNS, res.AtNS...)
		run.latNS = append(run.latNS, res.LatNS...)
		run.ackedSets += int64(res.Sets)
		run.lateNS = append(run.lateNS, res.LateNS...)
		run.lateAtNS = append(run.lateAtNS, res.LateAtNS...)
		run.capAtNS = append(run.capAtNS, res.CapAtNS...)
		run.maxOut = max(run.maxOut, res.MaxOut)
		replies.Bad += res.Failed
		if res.FirstErr != "" {
			replies.Detail = res.FirstErr
		}
	}
	replies.Units = len(run.latNS) + replies.Bad
	run.checks = append(run.checks, replies)
	if wl.spec.RateHz > 0 {
		run.checks = append(run.checks, scheduleCheck(run, wl.spec.MaxOut))
	}

	// Durability: SIGKILL never reaches the image-save path, so what the
	// restart serves is base image + journal. Every key must hold a
	// version no older than its last acked set and no newer than its
	// last issued one.
	if fi, err := os.Stat(image + ".wal"); err == nil {
		run.walBytes = fi.Size()
	}
	restart := time.Now()
	restarted, err := startServer(bins.ptmserve, args...)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	srv = restarted
	run.restartS = time.Since(restart).Seconds()
	vers, err := loadgen.ReadBack(srv.addr, wl.spec)
	if err != nil {
		run.checks = append(run.checks, check{"durability", wl.spec.Keys, wl.spec.Keys, err.Error()})
		return run, nil
	}
	durable := check{Name: "durability", Units: len(vers)}
	for _, c := range clients {
		for _, k := range c.Owned() {
			if v := vers[k]; v < c.Acked(k) || v > c.Issued(k) {
				durable.Bad++
				durable.Detail = fmt.Sprintf("%s holds v%d after restart, acked v%d, issued v%d",
					loadgen.KeyName(k), v, c.Acked(k), c.Issued(k))
			}
		}
	}
	if durable.Bad == 0 {
		durable.Detail = "every key within [last acked, last issued] after SIGKILL and restart"
	}
	run.checks = append(run.checks, durable)
	return run, nil
}

// scheduleCheck judges the open loop the way its metrics are reported,
// slice by slice. A slice is off schedule when the generator's p99
// lateness in it exceeds maxLatenessP99 or a send in it found maxOut
// requests already in flight on its connection: there the generator,
// not the server, shaped what was measured. The run reports the middle
// half of its slices, so it stands while most slices are on schedule: a
// stall of this process (one second in twenty has one of 8–30 ms, on an
// idle host too) voids the slices it touches, and only a host that
// stalls it every other second voids the run.
func scheduleCheck(run *kvRun, maxOut int) check {
	n, sliceOf := slicing(run.window)
	late := make([][]int64, n)
	for i, at := range run.lateAtNS {
		late[sliceOf(at)] = append(late[sliceOf(at)], run.lateNS[i])
	}
	capped := make([]bool, n)
	for _, at := range run.capAtNS {
		capped[sliceOf(at)] = true
	}
	off, bySlice := 0, make([]string, n)
	for i := range late {
		p99 := time.Duration(quant.Percentile(late[i], 99))
		bySlice[i] = fmt.Sprintf("%.1f", float64(p99.Microseconds())/1e3)
		if capped[i] || p99 > maxLatenessP99 {
			off++
		}
	}
	bad := 0
	if 2*off >= n {
		bad = 1
	}
	return check{"open_loop_schedule", 1, bad, fmt.Sprintf(
		"%d of %d slices off schedule (lateness p99 over %v, or one of the %d sends that found %d in flight); lateness p99 by slice, ms: %s; most in flight on a connection: %d",
		off, n, maxLatenessP99, len(run.capAtNS), maxOut, strings.Join(bySlice, " "), run.maxOut)}
}

// removeImage deletes an image and the sidecars ptmserve keeps next to
// it, so the next start formats a fresh store.
func removeImage(image string) error {
	for _, suffix := range []string{"", ".wal", ".flight", ".tmp"} {
		if err := os.Remove(image + suffix); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}
