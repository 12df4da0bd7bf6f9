// Command ptmsoak is the crash-injecting soak harness: it drives the
// persistent KV service through repeated kill/restart cycles under
// concurrent load and checks every acknowledged response against a
// durable-linearizability oracle that spans the restarts.
//
// Process mode (default) soaks a real ptmserve binary — real TCP,
// real SIGKILL/SIGTERM, real image and journal files:
//
//	ptmsoak -bin ./ptmserve -duration 30s -killmode mix
//
// In-process mode soaks a Store inside this process with simulated
// power failures (no sockets; this is what the unit tests run):
//
//	ptmsoak -mode inproc -duration 10s
//
// The verdict is one line of JSON on stdout. Exit status: 0 when the
// soak found no violations, 1 when the oracle flagged at least one
// (a repro file is written if -repro is set), 2 on operational
// errors. A failed run's repro replays exactly:
//
//	ptmsoak -replay soak-repro.json -bin ./ptmserve
//
// The self-test that proves the gate can fail: -unsafe-nodurable
// weakens the target from the harness side — after every injected
// kill the journal is thrown away and no image is saved — so kills
// lose acked writes, and the run must then exit 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"goptm/internal/server/soak"
)

func main() {
	mode := flag.String("mode", "process", "target: process (real ptmserve + signals) or inproc (simulated power failures)")
	bin := flag.String("bin", "", "process mode: path to the ptmserve binary")
	image := flag.String("image", "", "image file path (default: a fresh temp dir)")
	duration := flag.Duration("duration", 30*time.Second, "total soak budget")
	clients := flag.Int("clients", 4, "concurrent load workers")
	keys := flag.Int("keys", 16, "keys per worker (each worker owns its keys)")
	killmode := flag.String("killmode", "mix", "fault per cycle: kill, term, term-race, save-race, or mix")
	killmin := flag.Duration("killmin", 2*time.Second, "earliest fault injection after a cycle starts")
	killmax := flag.Duration("killmax", 3500*time.Millisecond, "latest fault injection")
	seed := flag.Uint64("seed", 1, "workload and kill-timing seed")
	algo := flag.String("algo", "redo", "PTM algorithm: redo, undo, or htm")
	domain := flag.String("domain", "ADR", "durability domain")
	shards := flag.Int("shards", 4, "executor shards")
	heap := flag.Uint64("heap", 1<<18, "persistent heap words (small default keeps cycles fast)")
	unsafe := flag.Bool("unsafe-nodurable", false, "self-test: after every injected kill, discard the journal (<image>.wal) and save no image, so kills lose acked writes; the run must fail")
	flightTail := flag.Int("flight-tail", 32, "flight-recorder records harvested into the verdict after each kill (process mode)")
	repro := flag.String("repro", "", "on violation, write a replayable repro JSON here")
	replay := flag.String("replay", "", "replay a repro JSON instead of reading the workload flags")
	verbose := flag.Bool("v", false, "log cycle progress to stderr")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "ptmsoak: %v\n", err)
		os.Exit(2)
	}

	var cfg soak.Config
	if *replay != "" {
		data, err := os.ReadFile(*replay)
		if err != nil {
			fail(err)
		}
		var r soak.Repro
		if err := json.Unmarshal(data, &r); err != nil {
			fail(fmt.Errorf("bad repro %s: %w", *replay, err))
		}
		cfg = soak.ConfigOf(r, *bin, *image)
	} else {
		cfg = soak.Config{
			Mode: *mode, Bin: *bin, Image: *image,
			Duration: *duration, Clients: *clients, KeysPerClient: *keys,
			KillMode: *killmode, KillMin: *killmin, KillMax: *killmax,
			Seed: *seed, Algo: *algo, Domain: *domain,
			Shards: *shards, Heap: *heap, NoDurable: *unsafe,
		}
	}
	cfg.FlightTail = *flightTail
	if cfg.Image == "" {
		dir, err := os.MkdirTemp("", "ptmsoak-")
		if err != nil {
			fail(err)
		}
		defer os.RemoveAll(dir)
		cfg.Image = filepath.Join(dir, "kv.img")
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ptmsoak: "+format+"\n", args...)
		}
	}

	v, err := soak.Run(cfg)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if v.OK {
		return
	}
	if *repro != "" {
		blob, err := json.MarshalIndent(soak.ReproOf(cfg, v), "", "  ")
		if err == nil {
			err = os.WriteFile(*repro, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ptmsoak: writing repro: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "ptmsoak: repro written to %s (replay with -replay)\n", *repro)
		}
	}
	os.Exit(1)
}
