package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"goptm/internal/server"

	"goptm/bench/loadgen"
	"goptm/bench/quant"
	"goptm/bench/sysprobe"
)

// The serving probe drives one in-process, one-shard store twice with
// the same request mix at the same depth: once by calling
// Executor.Submit directly, once through the TCP frontend with the
// benchmark's own client. The difference is the TCP layer's cost —
// parse, render, the per-request allocations in tcp.go — plus this
// process's client, which is written not to allocate per request.
const (
	servingRequests = 40000
	servingDepth    = 16
)

var servingSpec = loadgen.Spec{Keys: replayKeys, ValueSize: replayValue, Conns: 1, Depth: servingDepth, GetShare: 0.5}

// cost is what a run of servingRequests requests cost this process.
type cost struct {
	allocs, bytes, cpuUS float64 // per request
}

func measure(run func() error) (cost, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0 := sysprobe.SelfCPU()
	if err := run(); err != nil {
		return cost{}, err
	}
	c1 := sysprobe.SelfCPU()
	runtime.ReadMemStats(&m1)
	return cost{
		allocs: float64(m1.Mallocs-m0.Mallocs) / servingRequests,
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / servingRequests,
		cpuUS:  float64((c1 - c0).Microseconds()) / servingRequests,
	}, nil
}

func serving(rep *report, tr *tracer, _ string) error {
	st, err := server.Open(server.StoreConfig{Shards: 1})
	if err != nil {
		return fmt.Errorf("serving: %w", err)
	}
	// ptmserve's executor settings (cmd/ptmserve/main.go), one shard.
	exec := server.NewExecutor(st, server.ExecConfig{
		Shards: 1, QueueDepth: 256, MaxBatch: 8, BatchWindowNS: 2000, DeadlineNS: 1_000_000,
		IdleSleep: 50 * time.Microsecond, WallClock: true,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := server.Serve(st, exec, ln)
	defer srv.Shutdown()
	addr := ln.Addr().String()
	if err := loadgen.Preload(addr, servingSpec); err != nil {
		return fmt.Errorf("serving: %w", err)
	}

	// Direct path: the same generator, each request submitted as the
	// TCP parser would submit it (a Request and a Done channel apiece).
	gen := loadgen.NewGen(servingSpec, 1, 0)
	var submitNS []int64
	tr.begin("Executor.Submit path")
	direct, err := measure(func() error {
		type flight struct {
			req *server.Request
			at  time.Time
		}
		ring := make([]flight, servingDepth)
		var val []byte
		for sent, done := 0, 0; done < servingRequests; {
			for sent < servingRequests && sent-done < servingDepth {
				r := gen.Next()
				req := &server.Request{Op: server.OpGet, Key: []byte(loadgen.KeyName(r.Key)), Done: make(chan struct{})}
				if r.Op == loadgen.OpSet {
					val = loadgen.AppendValue(val[:0], r.Key, r.Ver, replayValue)
					req.Op, req.Value = server.OpSet, append([]byte(nil), val...)
				}
				now := time.Now()
				if !exec.Submit(req) {
					return fmt.Errorf("serving: Submit refused request %d", sent)
				}
				ring[sent%servingDepth] = flight{req, now}
				sent++
			}
			f := ring[done%servingDepth]
			<-f.req.Done
			if f.req.Shed || f.req.Err != nil {
				return fmt.Errorf("serving: request %d shed or failed: %v", done, f.req.Err)
			}
			submitNS = append(submitNS, time.Since(f.at).Nanoseconds())
			done++
		}
		return nil
	})
	tr.end()
	if err != nil {
		return err
	}

	// Back to version 1 everywhere, the state the client's checks assume.
	if err := loadgen.Preload(addr, servingSpec); err != nil {
		return fmt.Errorf("serving: %w", err)
	}
	client, err := loadgen.Dial(addr, servingSpec, 2, 0)
	if err != nil {
		return err
	}
	defer client.Close()
	tr.begin("TCP path")
	tcp, err := measure(func() error {
		client.RunClosedN(servingRequests)
		if res := client.Result(); res.Failed > 0 || len(res.LatNS) != servingRequests {
			return fmt.Errorf("serving: TCP path: %d failed, %d ok: %s", res.Failed, len(res.LatNS), res.FirstErr)
		}
		return nil
	})
	tr.end()
	if err != nil {
		return err
	}

	rep.set("executor.allocs_per_req", direct.allocs, "count", servingRequests)
	rep.set("executor.submit_to_done_us_p50", float64(quant.Percentile(submitNS, 50))/1e3, "us", servingRequests)
	rep.set("tcp.allocs_per_req", tcp.allocs-direct.allocs, "count", servingRequests)
	rep.set("tcp.bytes_per_req", tcp.bytes-direct.bytes, "B", servingRequests)
	rep.set("tcp.self_us_per_req", tcp.cpuUS-direct.cpuUS, "us", servingRequests)
	return nil
}
