// Command ptmserve runs the persistent KV service over the simulated
// PTM machine — the paper's memcached-style capstone (§V) as a real
// network server.
//
// Server mode (default):
//
//	ptmserve -listen :11211 -image /var/tmp/kv.img
//	    Serve a memcached text-protocol subset (get/set/delete/incr/
//	    stats/quit) over TCP. If -image exists it is reopened: the
//	    saved NVM media image is restored and crash recovery (redo
//	    replay or undo rollback plus allocator GC) runs before the
//	    first connection is accepted. On SIGTERM/SIGINT the server
//	    drains in-flight requests, simulates a power failure (the
//	    durability domain's policy resolves caches and the WPQ into
//	    the final image), saves -image, and exits — so a kill/restart
//	    cycle exercises the same recovery path a power loss would.
//	    Acked writes are additionally journaled to <image>.wal before
//	    each acknowledgment, so even SIGKILL — which never reaches the
//	    image-save path — loses nothing the server confirmed, in every
//	    -domain: the journal records the acked commands, and a restart
//	    re-executes them on top of the recovered image. The journal is
//	    written, never fsynced: it guards against process death, which
//	    keeps the page cache; power loss is the simulated machine's
//	    failure domain. Without -image the store lives in memory only
//	    and nothing survives the process.
//
// Load-simulator mode:
//
//	ptmserve -loadsim -rate 4000000 -requests 20000 -batches 1,4,16
//	    No sockets: a deterministic open-loop arrival process drives
//	    the same sharded batching executor in virtual time under the
//	    lockstep scheduler, printing a p50/p90/p99 latency table per
//	    batch size. Identical flags produce byte-identical output on
//	    any machine — CI pins the bytes.
//
// Shared knobs: -algo redo|undo|htm, -domain ADR|eADR|..., -shards,
// -maxbatch, -window (batch window ns), -deadline (shed deadline ns),
// -queue (per-shard depth). A batch is whatever is queued, up to
// -maxbatch; nothing tunes the pair at run time.
// Every number the server reports — memcached stats, -telemetry's
// /metrics and /snapshot, the flight sidecar's samples — is a
// rendering of one server.Snapshot. See docs/SERVING.md for the
// protocol subset, the pipelined connection design, and why group
// commit has no controller.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/obs"
	"goptm/internal/server"
	"goptm/internal/server/loadsim"
)

// Fixed, not flags: no caller, benchmark or CI step ever set them —
// the flight ring's size (server.FlightSlots) and the loadsim keyspace
// shape (4096 keys x 64 B values, 50 % sets, loadsim.Config's
// zero-value default).
func main() {
	listen := flag.String("listen", ":11211", "TCP listen address (server mode)")
	image := flag.String("image", "", "NVM media image file: reopened on start if present, saved on shutdown; acked writes are journaled to <image>.wal (written, not fsynced) before every ack, so a process kill loses nothing acknowledged, in every -domain")
	algoName := flag.String("algo", "redo", "PTM algorithm: redo, undo, or htm")
	domainName := flag.String("domain", "ADR", "durability domain (ADR, eADR, PDRAM, PDRAM-Lite)")
	shards := flag.Int("shards", 4, "executor shards (keyspace partitions)")
	maxBatch := flag.Int("maxbatch", 8, "max ops coalesced into one transaction; 1 disables batching")
	windowNS := flag.Int64("window", 2000, "group-commit batch window, virtual ns; -1 disables")
	deadlineNS := flag.Int64("deadline", 1_000_000, "shed requests older than this, in virtual ns counted from the later of enqueue and the shard's last wake; -1 disables")
	queueDepth := flag.Int("queue", 256, "per-shard request queue depth")
	heapWords := flag.Uint64("heap", 0, "persistent heap words (0 = default 1<<21); smaller heaps make smaller images")

	loadsimMode := flag.Bool("loadsim", false, "run the deterministic open-loop load simulator instead of serving TCP")
	rate := flag.Float64("rate", 2e6, "loadsim: arrivals per virtual second")
	requests := flag.Int("requests", 20000, "loadsim: arrivals to generate")
	seed := flag.Uint64("seed", 1, "loadsim: arrival-process seed")
	warmup := flag.Int("warmup", 0, "loadsim: initial arrivals excluded from latency percentiles")
	batches := flag.String("batches", "1,8", "loadsim: comma-separated batch sizes to sweep")

	telemetry := flag.String("telemetry", "", "server mode: serve /metrics (Prometheus text), /snapshot (JSON), and /healthz on this loopback address; empty (the default) disables")
	tracePath := flag.String("trace", "", "write a Perfetto-JSON trace here on exit: the flight ring's request-lifecycle chains, the newest 4096 completions (server mode on wall time; loadsim on virtual time, per batch size)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "ptmserve: %v\n", err)
		os.Exit(1)
	}

	algo, ok := core.ParseAlgo(*algoName)
	if !ok {
		fail(fmt.Errorf("unknown algorithm %q", *algoName))
	}
	domain, err := durability.Parse(*domainName)
	if err != nil {
		fail(err)
	}

	if *loadsimMode {
		var sizes []int
		for _, f := range strings.Split(*batches, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fail(fmt.Errorf("bad -batches entry %q", f))
			}
			sizes = append(sizes, n)
		}
		// One recorder across the whole batch sweep: runs are
		// sequential, so the exported trace carries every batch size's
		// chains on the shared virtual timeline.
		var rec *obs.Recorder
		if *tracePath != "" {
			rec = obs.New(*shards+1, true)
		}
		results, err := loadsim.Curve(loadsim.Config{
			Algo: algo, Domain: domain, Shards: *shards,
			Rate: *rate, Requests: *requests, Seed: *seed, Warmup: *warmup,
			BatchWindowNS: *windowNS, DeadlineNS: *deadlineNS, QueueDepth: *queueDepth,
			Recorder: rec,
		}, sizes)
		if err != nil {
			fail(err)
		}
		fmt.Print(loadsim.Report(results))
		if rec != nil {
			if err := rec.WriteTraceFile(*tracePath); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "ptmserve: trace written to %s (%d request chains)\n", *tracePath, len(rec.Requests()))
		}
		return
	}

	scfg := server.StoreConfig{
		Algo: algo, Domain: domain, Shards: *shards, MaxBatch: *maxBatch, Heap: *heapWords,
	}
	var st *server.Store
	openStart := time.Now()
	if *image != "" {
		st, err = server.OpenDurable(*image, scfg)
	} else {
		st, err = server.Open(scfg)
	}
	if err != nil {
		fail(err)
	}
	openMS := time.Since(openStart).Milliseconds()
	if st.Recovered {
		rep := st.Recovery
		fmt.Printf("ptmserve: recovered image %s: %d redo replayed, %d undo rolled back, %d blocks swept (%d virtual ns) in %d ms\n",
			*image, rep.RedoReplayed, rep.UndoRolledBack, rep.BlocksSwept, rep.DurationNS, openMS)
		fmt.Printf("ptmserve: replayed %d journal batches from %s\n", st.WALBatches, server.WALPath(*image))
	} else if *image != "" {
		fmt.Printf("ptmserve: formatted image %s in %d ms\n", *image, openMS)
	}

	// The flight ring is the one per-request record: with -image it is
	// mirrored to a sidecar so a SIGKILLed process still leaves its last
	// pre-kill window behind; with -trace its chains (wall-clock, since
	// TCP requests live on host time) are exported at shutdown through a
	// standalone recorder, so machine spans stay off.
	var rec *obs.Recorder
	if *tracePath != "" {
		rec = obs.New(1, true)
	}
	var fr *server.FlightRecorder
	if *image != "" || rec != nil {
		fr = server.NewFlightRecorder(server.FlightSlots)
	}
	defer func() {
		// A panic on this goroutine — the shutdown path below — still
		// dumps the ring (a shard worker's panic dumps it itself).
		if r := recover(); r != nil {
			fr.Dump()
			panic(r)
		}
	}()

	exec := server.NewExecutor(st, server.ExecConfig{
		Shards: *shards, QueueDepth: *queueDepth, MaxBatch: *maxBatch,
		BatchWindowNS: *windowNS, DeadlineNS: *deadlineNS,
		WallClock: true,
		Flight:    fr,
	})
	if *image != "" {
		fr.StartMirror(server.FlightPath(*image), 0, exec.Snapshot)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail(err)
	}
	srv := server.Serve(st, exec, ln)
	fmt.Printf("ptmserve: serving on %s (%s/%s, %d shards, batch<=%d)\n",
		ln.Addr(), st.Config().Algo, st.Config().Domain, exec.Config().Shards, exec.Config().MaxBatch)
	var tel *server.Telemetry
	if *telemetry != "" {
		tel, err = server.StartTelemetry(*telemetry, exec)
		if err != nil {
			fail(err)
		}
		fmt.Printf("ptmserve: telemetry on http://%s (/metrics, /snapshot, /healthz)\n", tel.Addr())
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	<-sigCh
	fmt.Println("ptmserve: draining...")
	srv.Shutdown()
	// Shutdown ordering: the executor is drained, so the trace is
	// complete; the flight recorder's final dump captures the drained
	// state; only then does the telemetry listener close — a scraper
	// polling through the drain never sees a half-stopped plane.
	if rec != nil {
		fr.Export(rec)
		if err := rec.WriteTraceFile(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "ptmserve: trace export: %v\n", err)
		} else {
			fmt.Printf("ptmserve: trace written to %s (%d request chains)\n", *tracePath, len(rec.Requests()))
		}
	}
	fr.Stop()
	if tel != nil {
		tel.Close()
	}
	if *image != "" {
		// Power-failure semantics on purpose: the domain policy decides
		// what survives, and the next start runs true crash recovery.
		st.Crash(exec.LastVT())
		if err := st.SaveImage(*image); err != nil {
			fail(err)
		}
		// Only after the image is durably renamed: the save bumped the
		// generation, so the journal it replaced is now stale.
		st.FinishJournal()
		fmt.Printf("ptmserve: image saved to %s\n", *image)
	}
}
