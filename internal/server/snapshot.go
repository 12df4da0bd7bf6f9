package server

import (
	"bufio"
	"fmt"
	"sort"
	"strings"
	"time"

	"goptm/internal/metrics"
	"goptm/internal/stats"
)

// Snapshot is the one point-in-time view of the serving layer: the
// machine's counter registry plus the executor's live gauges and
// latency summaries. Executor.Snapshot builds it — the only place the
// registry and the shard state are read — and everything that reports
// numbers renders or reads that one value: the memcached `stats` reply
// (writeStats), the Prometheus exposition (writeProm), the /snapshot
// JSON document (the struct tags), the flight recorder's counter
// samples (flightSample), loadsim's result roll-up, and the tests.
type Snapshot struct {
	WallNS     int64            `json:"wall_ns"`
	Counters   map[string]int64 `json:"counters"`
	QueueDepth int64            `json:"queue_depth"`
	Shards     []ShardSnapshot  `json:"shards"`

	Latency      *stats.Histogram `json:"latency_ns"`  // merged enqueue→completion, virtual ns
	BatchSizes   *stats.Histogram `json:"batch_sizes"` // one sample per executed batch
	AckBarrier   *stats.Histogram `json:"ack_barrier_ns"`
	JournalFlush *stats.Histogram `json:"journal_flush_ns"`

	FlightSeq uint64 `json:"flight_seq"` // 0 when no flight recorder
}

// ShardSnapshot is one shard's live gauges.
type ShardSnapshot struct {
	Shard      int   `json:"shard"`
	QueueDepth int   `json:"queue_depth"`
	Shed       int64 `json:"shed"` // deadline sheds at pop time
}

// Snapshot assembles the current view. Safe to call while the workers
// run — the histograms are merged under each shard's stats mutex —
// though a mid-run snapshot is of course a moving target.
func (e *Executor) Snapshot() Snapshot {
	flush := e.st.JournalFlushStats()
	snap := Snapshot{
		WallNS:       time.Now().UnixNano(),
		Counters:     make(map[string]int64, metrics.NumCounters),
		QueueDepth:   e.queued.Load(),
		Shards:       make([]ShardSnapshot, len(e.shards)),
		Latency:      new(stats.Histogram),
		BatchSizes:   new(stats.Histogram),
		AckBarrier:   new(stats.Histogram),
		JournalFlush: &flush,
		FlightSeq:    e.cfg.Flight.Seq(),
	}
	for c := metrics.Counter(0); c < metrics.NumCounters; c++ {
		snap.Counters[c.String()] = e.met.Get(c)
	}
	for i, s := range e.shards {
		sh := &snap.Shards[i]
		*sh = ShardSnapshot{Shard: i, Shed: s.shed.Load()}
		s.mu.Lock()
		sh.QueueDepth = len(s.queue) - s.head
		s.mu.Unlock()
		s.statsMu.Lock()
		snap.Latency.Merge(&s.latency)
		snap.BatchSizes.Merge(&s.batchSizes)
		snap.AckBarrier.Merge(&s.ackLat)
		s.statsMu.Unlock()
	}
	return snap
}

// Executed is the count of requests served through transactions: every
// executed batch records its size, so the sizes sum to it.
func (s Snapshot) Executed() int64 { return s.BatchSizes.Sum() }

// Shed is the count of requests deadline-shed at pop time, all shards.
func (s Snapshot) Shed() (n int64) {
	for _, sh := range s.Shards {
		n += sh.Shed
	}
	return n
}

// Counter reads one registry counter out of the snapshot.
func (s Snapshot) Counter(c metrics.Counter) int64 { return s.Counters[c.String()] }

// flightSample is the flight recorder's rendering: absolute values of
// the counters that have moved.
func (s Snapshot) flightSample() FlightSample {
	out := FlightSample{WallNS: s.WallNS, QueueDepth: s.QueueDepth, Counters: map[string]int64{}}
	for name, v := range s.Counters {
		if v != 0 {
			out.Counters[name] = v
		}
	}
	return out
}

// writeStats renders the memcached `stats` reply: "STAT name value"
// lines in sorted order, then END. Every key is always present, so a
// monitoring client can parse the response against a fixed schema (the
// stats tests pin exactly this key set).
func (s Snapshot) writeStats(w *bufio.Writer) {
	lines := []string{
		fmt.Sprintf("batched_ops_total %d", s.Counter(metrics.CtrSrvBatchedOps)),
		fmt.Sprintf("batches_total %d", s.Counter(metrics.CtrSrvBatches)),
		fmt.Sprintf("cmd_total %d", s.Counter(metrics.CtrSrvRequests)),
		fmt.Sprintf("queue_depth %d", s.QueueDepth),
		fmt.Sprintf("shed_total %d", s.Counter(metrics.CtrSrvShed)),
		fmt.Sprintf("txn_aborts %d", s.Counter(metrics.CtrAborts)),
		fmt.Sprintf("txn_commits %d", s.Counter(metrics.CtrCommits)),
	}
	for _, sh := range s.Shards {
		lines = append(lines,
			fmt.Sprintf("shard%d_queue_depth %d", sh.Shard, sh.QueueDepth),
			fmt.Sprintf("shard%d_shed %d", sh.Shard, sh.Shed),
		)
	}
	sort.Strings(lines)
	for _, line := range lines {
		fmt.Fprintf(w, "STAT %s\r\n", line)
	}
	fmt.Fprintf(w, "END\r\n")
}

// writeProm renders the snapshot in the Prometheus text exposition
// format, metric families in sorted name order (the CI smoke parses
// every line).
func (s Snapshot) writeProm(w *strings.Builder) {
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fam := "goptm_" + name + "_total"
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", fam, fam, s.Counters[name])
	}
	fmt.Fprintf(w, "# TYPE goptm_srv_queue_depth gauge\ngoptm_srv_queue_depth %d\n", s.QueueDepth)
	promShardGauge(w, "goptm_srv_shard_queue_depth", s.Shards, func(sh ShardSnapshot) int64 { return int64(sh.QueueDepth) })
	promShardGauge(w, "goptm_srv_shard_shed", s.Shards, func(sh ShardSnapshot) int64 { return sh.Shed })
	promSummary(w, "goptm_srv_ack_barrier_ns", s.AckBarrier)
	promSummary(w, "goptm_srv_batch_size", s.BatchSizes)
	promSummary(w, "goptm_srv_journal_flush_ns", s.JournalFlush)
	promSummary(w, "goptm_srv_request_latency_ns", s.Latency)
}

func promShardGauge(w *strings.Builder, fam string, shards []ShardSnapshot, get func(ShardSnapshot) int64) {
	fmt.Fprintf(w, "# TYPE %s gauge\n", fam)
	for _, s := range shards {
		fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", fam, s.Shard, get(s))
	}
}

var promQuantiles = []struct {
	label string
	p     float64
}{{"0.5", 50}, {"0.9", 90}, {"0.99", 99}, {"0.999", 99.9}}

func promSummary(w *strings.Builder, fam string, h *stats.Histogram) {
	fmt.Fprintf(w, "# TYPE %s summary\n", fam)
	for _, q := range promQuantiles {
		fmt.Fprintf(w, "%s{quantile=\"%s\"} %d\n", fam, q.label, h.Percentile(q.p))
	}
	fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", fam, h.Sum(), fam, h.Count())
}
