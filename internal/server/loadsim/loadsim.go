// Package loadsim is the deterministic open-loop companion to the
// ptmserve TCP frontend: it drives the server's sharded batching
// executor entirely in virtual time, with a seeded arrival process on
// a lockstep-scheduled machine, so a service-latency curve is exactly
// reproducible — two runs with the same config produce byte-identical
// reports, pinnable by hash in CI.
//
// Open-loop matters here the way it matters in real load testing: a
// closed-loop client waits for each response before sending the next
// request, so a slow server self-throttles its own load and hides
// queueing delay. The open-loop generator emits requests on its own
// seeded schedule regardless of completions, which is what exposes
// the batching trade-off this harness exists to measure: at high
// arrival rates, commit coalescing cuts p99 latency (one durable
// commit tail amortized over a full batch) while batch size 1 drowns
// in per-op fence cost and sheds load.
package loadsim

import (
	"fmt"
	"strings"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/obs"
	"goptm/internal/server"
	"goptm/internal/simtime"
	"goptm/internal/stats"
)

// Config parameterizes one run. The zero value is completed by
// withDefaults; Rate and Requests are the knobs sweeps usually turn.
type Config struct {
	Algo   core.Algo
	Domain durability.Domain
	Shards int // executor shards; 0 selects 4

	Keys       int // prepopulated keyspace; 0 selects 4096
	ValueBytes int // value size; 0 selects 64
	SetPercent int // percentage of sets in the mix; 0 selects 50

	Rate     float64 // arrivals per virtual second; 0 selects 2e6
	Requests int     // arrivals to generate; 0 selects 20000
	Seed     uint64  // arrival-process seed; 0 selects 1

	MaxBatch      int   // commit coalescing bound; 0 selects 8, 1 disables
	BatchWindowNS int64 // group-commit window; 0 selects 2000
	DeadlineNS    int64 // shedding deadline; 0 selects 1ms
	QueueDepth    int   // per-shard queue; 0 selects 256

	// Warmup marks the first N arrivals warmup: they execute and count
	// as executed, but stay out of the latency percentiles, so the
	// ramp from an empty queue does not pollute the steady-state p99.
	Warmup int

	// Recorder, when tracing, receives the machine's spans and counter
	// tracks plus the request-lifecycle chains of the run's newest
	// server.FlightSlots completions (a flight ring attached for the
	// run); export it with WriteTrace afterwards. Every stamp rides the
	// virtual clock, so tracing never shifts a latency curve. Nil (the
	// default) records nothing and leaves every golden-pinned report
	// byte-identical.
	Recorder *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Keys <= 0 {
		c.Keys = 4096
	}
	if c.ValueBytes <= 0 {
		c.ValueBytes = 64
	}
	if c.SetPercent <= 0 {
		c.SetPercent = 50
	}
	if c.Rate <= 0 {
		c.Rate = 2e6
	}
	if c.Requests <= 0 {
		c.Requests = 20000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8
	}
	return c
}

// Result is one run's outcome.
type Result struct {
	Cfg      Config
	Executed int64 // requests served through transactions
	Shed     int64 // deadline-shed after queueing
	Rejected int64 // refused at admission (queue full)

	P50, P90, P99, P999 int64   // enqueue→completion latency, virtual ns (post-warmup)
	MeanBatch           float64 // average coalesced batch size
	Batches             int64
	ElapsedNS           int64   // virtual time from first arrival to drain
	Throughput          float64 // executed requests per virtual second

	Latency stats.Histogram
}

// Run executes one deterministic open-loop experiment.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	st, err := server.Open(server.StoreConfig{
		Algo:     cfg.Algo,
		Domain:   cfg.Domain,
		Shards:   cfg.Shards,
		MaxBatch: max(cfg.MaxBatch, 8), // size the log for the largest sweep point
		Lockstep: true,
		Recorder: cfg.Recorder,
	})
	if err != nil {
		return Result{}, err
	}

	// Prepopulate the keyspace from thread 0 before the shard workers
	// attach, in batched transactions sized like the executor's.
	kv := st.KV()
	th0 := st.TM().Thread(0)
	val := make([]byte, cfg.ValueBytes)
	chunk := st.Config().MaxBatch
	for base := 0; base < cfg.Keys; base += chunk {
		end := min(base+chunk, cfg.Keys)
		th0.Atomic(func(tx *core.Tx) {
			for k := base; k < end; k++ {
				fillValue(val, uint64(k))
				if err := kv.Set(tx, keyBytes(k), val, 0); err != nil {
					panic(err)
				}
			}
		})
	}

	var ring *server.FlightRecorder
	if cfg.Recorder.Tracing() {
		ring = server.NewFlightRecorder(server.FlightSlots)
	}
	exec := server.NewExecutor(st, server.ExecConfig{
		Shards:        cfg.Shards,
		QueueDepth:    cfg.QueueDepth,
		MaxBatch:      cfg.MaxBatch,
		BatchWindowNS: cfg.BatchWindowNS,
		DeadlineNS:    cfg.DeadlineNS,
		Flight:        ring,
	})

	// The open-loop generator: arrivals with seeded integer gaps,
	// uniform in [0, 2*mean) so the mean matches 1/Rate without
	// floating-point math in the deterministic path.
	rng := simtime.NewRand(cfg.Seed)
	meanGap := int64(1e9 / cfg.Rate)
	if meanGap < 1 {
		meanGap = 1
	}
	start := th0.Now()
	var rejected int64
	reqs := make([]server.Request, cfg.Requests)
	for i := 0; i < cfg.Requests; i++ {
		th0.Compute(int64(rng.Uint64n(uint64(2*meanGap))) + 1)
		req := &reqs[i]
		req.Warmup = i < cfg.Warmup
		k := int(rng.Uint64n(uint64(cfg.Keys)))
		req.Key = keyBytes(k)
		if int(rng.Uint64n(100)) < cfg.SetPercent {
			req.Op = server.OpSet
			v := make([]byte, cfg.ValueBytes)
			fillValue(v, uint64(i))
			req.Value = v
		} else {
			req.Op = server.OpGet
		}
		req.EnqVT = th0.Now()
		if !exec.Submit(req) {
			rejected++
		}
	}
	exec.InputsDone()
	th0.Detach()
	exec.Drain()
	ring.Export(cfg.Recorder)

	snap := exec.Snapshot()
	res := Result{
		Cfg:      cfg,
		Executed: snap.Executed(),
		Shed:     snap.Shed(),
		Rejected: rejected,
		P50:      snap.Latency.P50(),
		P90:      snap.Latency.P90(),
		P99:      snap.Latency.P99(),
		P999:     snap.Latency.P999(),
		Batches:  snap.BatchSizes.Count(),
		Latency:  *snap.Latency,
	}
	if res.Batches > 0 {
		res.MeanBatch = float64(res.Executed) / float64(res.Batches)
	}
	// Elapsed runs to the last shard's final virtual timestamp.
	res.ElapsedNS = exec.LastVT() - start
	if res.ElapsedNS > 0 {
		res.Throughput = float64(res.Executed) / (float64(res.ElapsedNS) / 1e9)
	}
	return res, nil
}

// Curve runs the same workload at each batch size and returns the
// results in order — the batching trade-off at one arrival rate.
func Curve(cfg Config, batchSizes []int) ([]Result, error) {
	out := make([]Result, 0, len(batchSizes))
	for _, b := range batchSizes {
		c := cfg
		c.MaxBatch = b
		r, err := Run(c)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Report renders results as the fixed-width table the CI determinism
// check hashes. Only integers and fixed-precision floats appear, so
// the bytes are platform-independent.
func Report(results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-10s %-9s %-6s %-6s %-9s %-9s %-9s %-9s %-9s %-10s\n",
		"batch", "rate", "executed", "shed", "rej", "p50ns", "p90ns", "p99ns", "p999ns", "meanbatch", "req/s")
	for _, r := range results {
		fmt.Fprintf(&b, "%-6d %-10.0f %-9d %-6d %-6d %-9d %-9d %-9d %-9d %-9.2f %-10.0f\n",
			r.Cfg.MaxBatch, r.Cfg.Rate, r.Executed, r.Shed, r.Rejected,
			r.P50, r.P90, r.P99, r.P999, r.MeanBatch, r.Throughput)
	}
	return b.String()
}

// keyBytes renders the canonical key for index k.
func keyBytes(k int) []byte { return fmt.Appendf(nil, "key-%d", k) }

// fillValue writes a deterministic pattern derived from seed into v.
func fillValue(v []byte, seed uint64) {
	for i := range v {
		v[i] = byte(seed + uint64(i)*131)
	}
}
