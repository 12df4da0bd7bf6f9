package server

import (
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"goptm/internal/core"
	"goptm/internal/metrics"
	"goptm/internal/obs"
	"goptm/internal/stats"
	"goptm/internal/workload/kvstore"
)

// The executor is where the paper's batching argument becomes service
// design. Each durable commit pays a fixed tail — log flush, sfence,
// commit-marker flush — that on Optane is dominated by WPQ drain
// latency, so N separate set transactions pay that tail N times.
// Coalescing adjacent writes into one transaction pays it once per
// batch, trading a bounded queueing delay (the batch window) for a
// large cut in per-op durable-commit cost. At high load the queue
// keeps batches full and p99 latency drops; at low load the window
// expires with a batch of one and latency is unchanged. Shards
// partition the keyspace by key hash so batches never conflict and
// commit in parallel. There is no feedback controller on (MaxBatch,
// BatchWindowNS): a batch is whatever is queued, up to the cap, so the
// queue itself tracks the load (docs/SERVING.md, "Why there is no
// controller", has the ablation).

// Op identifies one KV operation.
type Op uint8

const (
	OpGet Op = iota
	OpSet
	OpDelete
	OpIncr
)

// Request is one queued KV command plus its completion state. The
// submitter owns it until Submit succeeds; after completion (done
// closed, or Submit returned false) the submitter owns it again.
type Request struct {
	Op    Op
	Key   []byte
	Value []byte // set payload
	Flags uint32 // set: opaque memcached flags
	Delta uint64 // incr amount

	// EnqVT is the virtual-time enqueue stamp. Submit fills it from
	// the target shard's clock when zero; loadsim pre-stamps it from
	// the generator thread's clock.
	EnqVT int64

	// Warmup excludes this request from the latency histograms (it
	// still executes, counts as executed, and can shed). Loadsim sets
	// it on ramp-up arrivals so percentile comparisons measure steady
	// state, the same warmup exclusion the harness applies.
	Warmup bool

	// Done is closed when the request completes (execution, shed, or
	// drain sweep). Submitters that need the result must set it; a nil
	// Done makes the request fire-and-forget.
	Done chan struct{}

	// Lifecycle-clock stamps (Executor.clock) for the flight record's
	// chain: enqueued by Submit, dequeued by the pop that took it.
	enq, pop int64

	// Results, valid once Done is closed.
	Found    bool   // get/delete/incr: key existed
	Val      []byte // get result
	ValFlags uint32 // get result flags
	NewVal   uint64 // incr result
	Shed     bool   // dropped by deadline shedding, not executed
	Err      error  // kv-layer error (bad key, non-numeric incr, drain)
}

// run executes req against kv inside tx — for the executor's batches
// and for journal replay alike. The body re-runs on abort: every result
// field is plainly overwritten so retries stay idempotent.
func (req *Request) run(tx *core.Tx, kv kvstore.KV) {
	switch req.Op {
	case OpGet:
		req.Val, req.ValFlags, req.Found = kv.Get(tx, req.Key)
	case OpSet:
		req.Err = kv.Set(tx, req.Key, req.Value, req.Flags)
	case OpDelete:
		req.Found = kv.Delete(tx, req.Key)
	case OpIncr:
		req.NewVal, req.Found, req.Err = kv.Incr(tx, req.Key, req.Delta)
	}
}

// ErrDraining completes requests still queued when the executor shuts
// down.
var ErrDraining = errors.New("server: executor draining")

// ErrDurable marks a request the executor refused to acknowledge
// because a durable-ack barrier (journal flush) failed. The failing
// batch has committed in simulated memory, but nothing promises its
// writes survive a process kill, so none of its members — reads
// included — is answered from that state; and from then on the
// executor is fail-stopped: every request completes with ErrDurable
// without running. A read can therefore never return a write that a
// kill may yet lose.
var ErrDurable = errors.New("server: durable acknowledgment failed")

// ExecConfig parameterizes the executor.
type ExecConfig struct {
	Shards     int // worker shards; thread i+1 of the machine drives shard i
	QueueDepth int // per-shard bounded queue; 0 selects 256
	// MaxBatch caps ops coalesced into one transaction; 0 selects the
	// store's MaxBatch. 1 disables coalescing (the baseline).
	MaxBatch int
	// BatchWindowNS is how long a shard waits, in virtual ns, to fill
	// a batch after its first request; 0 selects 2000 (2 µs).
	// Negative disables the wait (batch = whatever is queued now).
	BatchWindowNS int64
	// DeadlineNS sheds requests older than this at pop time — before
	// they consume a batch slot; 0 selects 1_000_000 (1 ms). Negative
	// disables shedding. Age is in virtual ns, counted from the later of
	// enqueue and the shard's last wake.
	DeadlineNS int64
	// IdleSleep, when positive, adds a host-time sleep to the idle polls
	// of a virtual-clock executor. It is ignored under WallClock, whose
	// idle shards park instead; it stays for virtual-clock executors and
	// because bench/layers/serving.go still sets it. Must stay 0 under
	// lockstep: a sleeping thread holds the scheduler floor.
	IdleSleep time.Duration
	// WallClock runs the lifecycle clock — the flight records' chains
	// and the latency histogram — on host ns since executor start
	// instead of the shards' virtual clocks, and parks idle shards
	// outside the engine's barrier until Submit wakes them: the TCP
	// server sets it (its requests live on wall time); loadsim leaves
	// it off. It needs a concurrent engine.
	WallClock bool
	// Flight, when non-nil, receives a FlightRecord for every request
	// completion (executed, shed, or swept at drain).
	Flight *FlightRecorder
}

// pollNS is the idle poll quantum in virtual ns: how far a shard with
// nothing to pop advances its clock before looking again.
const pollNS = 200

func (c ExecConfig) withDefaults(st *Store) ExecConfig {
	if c.Shards <= 0 || c.Shards > st.cfg.Shards {
		// The machine has this many shard threads, and a reopened
		// image keeps the count it was created with.
		c.Shards = st.cfg.Shards
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = st.cfg.MaxBatch
	}
	if c.MaxBatch > st.cfg.MaxBatch {
		c.MaxBatch = st.cfg.MaxBatch // the log is sized for this bound
	}
	if c.BatchWindowNS == 0 {
		c.BatchWindowNS = 2000
	}
	if c.DeadlineNS == 0 {
		c.DeadlineNS = 1_000_000
	}
	return c
}

// shard is one keyspace partition: a bounded FIFO and the simulated
// thread that drains it.
type shard struct {
	id    int
	mu    sync.Mutex
	queue []*Request
	head  int

	lastVT atomic.Int64 // the shard thread's clock, for Submit stamping
	// wake is signalled by every Submit to the shard and by shutdown; a
	// parked (WallClock) worker blocks on it. One slot: a token left by
	// a Submit the worker already served costs one empty loop, and no
	// signal is ever lost.
	wake chan struct{}
	// resumedVT is the worker's clock at its last wake: a request that
	// arrived while the shard was parked ages from here, not from the
	// stale clock Submit stamped. Worker-owned.
	resumedVT int64

	// Per-shard scratch, so the completion path never allocates: the
	// record being built or fanned out, and the requests a pop shed.
	done    completion
	shedBuf []*Request

	// statsMu guards the histograms: the worker takes it once per
	// batch, so Snapshot can merge live stats from host goroutines
	// without racing the shard thread.
	statsMu    sync.Mutex
	latency    stats.Histogram // enqueue→ack on the lifecycle clock (host ns under WallClock)
	batchSizes stats.Histogram
	ackLat     stats.Histogram // durable-ack barrier (journal append+flush), host ns
	shed       atomic.Int64    // per-shard deadline sheds (Snapshot reads it live)
}

// batchKind says what a completion record's members went through.
type batchKind uint8

const (
	batchExecuted batchKind = iota // ran in one transaction
	batchShed                      // expired at pop time, never executed (Request.Shed)
	batchSwept                     // never executed: ErrDraining at Drain, ErrDurable after a failed barrier
)

// completion is the one record every finished group of requests
// produces — an executed batch, the requests one pop shed, or Drain's
// leftover sweep — and the only thing the observers (shard stats,
// flight ring, metrics) ever see. The per-request shed/err flags and
// enqueue/pop stamps ride on the members themselves.
type completion struct {
	kind    batchKind
	shard   int
	members []*Request
	// Lifecycle-clock boundaries (Executor.clock: virtual ns, host ns
	// under WallClock), a flight record's TS[3..7]: the batch closed and
	// its transaction began, the transaction returned, the WPQ drained
	// onto media, the journal flushed, the members were acknowledged.
	// Nothing drains the WPQ on the ack path, so drained always equals
	// ran; a batch with no barrier — and every shed or swept one —
	// collapses the later ones onto the earlier too.
	closed, ran, drained, flushed, acked int64
	end                                  int64 // shard virtual clock at completion
	barrierNS                            int64 // durable-ack barrier host time; 0 when none ran
}

// Executor shards the store's keyspace and drains each shard's queue
// on its own simulated thread, coalescing writes into batched
// transactions.
type Executor struct {
	st  *Store
	cfg ExecConfig
	met *metrics.Registry
	rec *obs.Recorder
	// durable runs the durable-ack barrier (journal append, then
	// Store.FlushJournal) after every batch that contains a write,
	// before any request in the batch completes, so an acked write
	// survives a kill of the host process. Set iff the store has a
	// journal: without one the barrier would protect nothing.
	durable bool
	// failed is set once a durable-ack barrier failed; the executor is
	// fail-stopped from then on (see ErrDurable).
	failed atomic.Bool

	shards []*shard
	queued atomic.Int64 // across all shards, for the queue-depth track
	epoch  time.Time    // WallClock's lifecycle-clock zero

	inputsDone atomic.Bool
	draining   atomic.Bool
	wg         sync.WaitGroup
}

// NewExecutor starts the shard workers on st's threads 1..Shards.
// Thread 0 stays free for the owner (setup, load generation, admin).
func NewExecutor(st *Store, cfg ExecConfig) *Executor {
	cfg = cfg.withDefaults(st)
	e := &Executor{
		st:      st,
		cfg:     cfg,
		met:     st.tm.Metrics(),
		rec:     st.tm.Recorder(),
		durable: st.wal != nil,
		shards:  make([]*shard, cfg.Shards),
		epoch:   time.Now(),
	}
	e.wg.Add(cfg.Shards)
	for i := range e.shards {
		s := &shard{id: i, wake: make(chan struct{}, 1)}
		e.shards[i] = s
		// Attach here, in shard order, not in the worker goroutines:
		// under lockstep the engine's turn order follows attachment
		// order, and a deterministic schedule needs a deterministic
		// attach sequence.
		go e.runShard(s, st.tm.Thread(i+1))
	}
	return e
}

// Config returns the executor's configuration (after defaulting).
func (e *Executor) Config() ExecConfig { return e.cfg }

// ShardOf returns the shard index serving key.
func (e *Executor) ShardOf(key []byte) int {
	return int(kvstore.HashKey(key) % uint64(len(e.shards)))
}

// Submit enqueues req on its key's shard. It reports false — without
// completing req — when the shard queue is full or the executor is
// draining; the caller answers "SERVER_ERROR busy". On true, req
// completes asynchronously (Done closes if set).
func (e *Executor) Submit(req *Request) bool {
	if e.draining.Load() {
		return false
	}
	s := e.shards[e.ShardOf(req.Key)]
	if req.EnqVT == 0 {
		req.EnqVT = s.lastVT.Load()
	}
	req.enq = e.clock(req.EnqVT)
	s.mu.Lock()
	if len(s.queue)-s.head >= e.cfg.QueueDepth {
		s.mu.Unlock()
		e.met.Add(metrics.CtrSrvShed, 1)
		return false
	}
	s.queue = append(s.queue, req)
	s.mu.Unlock()
	s.signal()
	e.queued.Add(1)
	e.met.Add(metrics.CtrSrvRequests, 1)
	return true
}

// signal wakes shard s's worker if it is parked, or leaves it a token
// for its next park.
func (s *shard) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// clock maps virtual time vt onto the lifecycle clock the boundary
// stamps run on: vt itself, or host ns since executor start under
// WallClock.
func (e *Executor) clock(vt int64) int64 {
	if e.cfg.WallClock {
		return int64(time.Since(e.epoch))
	}
	return vt
}

// popLive removes queued requests from shard s until it has gathered
// up to limit live ones, shedding any that aged past deadline *at pop
// time* — an expired request completes as shed right here (one
// batchShed record per pop) and never consumes a batch slot. A request
// ages from the later of its enqueue stamp and the shard's last wake,
// so time the shard spent parked does not count against it. It appends
// the live requests to *out.
func (s *shard) popLive(e *Executor, limit int, now, deadline int64, out *[]*Request) {
	shed, live := s.shedBuf[:0], 0
	s.mu.Lock()
	t := e.clock(now) // under the lock: after any enqueue stamp it pops
	for s.head < len(s.queue) && live < limit {
		req := s.queue[s.head]
		s.head++
		req.pop = t
		if deadline > 0 && now-max(req.EnqVT, s.resumedVT) > deadline {
			req.Shed = true
			shed = append(shed, req)
			continue
		}
		*out = append(*out, req)
		live++
	}
	if s.head == len(s.queue) {
		// Reuse the backing array once drained; keeps steady state
		// allocation-free.
		s.queue = s.queue[:0]
		s.head = 0
	}
	s.mu.Unlock()
	s.shedBuf = shed
	if n := live + len(shed); n > 0 {
		e.queued.Add(int64(-n))
	}
	if len(shed) > 0 {
		e.complete(s, e.begin(s, batchShed, shed, now))
	}
}

// runShard is one shard worker: poll, assemble a batch (shedding the
// overdue at pop time), and execute the live requests in one
// transaction. An idle worker must never hold the other threads at a
// window boundary. Under WallClock it parks — leaves the barrier until
// Submit or shutdown wakes it, then rejoins at the machine's present —
// so virtual time moves only with simulated work and an idle server
// burns no CPU. A virtual-clock executor instead polls, advancing its
// clock by pollNS: loadsim runs on the lockstep engine, where no thread
// can skip its turn. The worker always resumes before it returns, so
// Detach never sees a parked thread.
func (e *Executor) runShard(s *shard, th *core.Thread) {
	defer e.wg.Done()
	defer th.Detach()
	// A simulated power failure (crash-injection hook) unwinds the
	// in-flight transaction without rollback; the worker dies with the
	// machine, exactly as a real one would. Requests in the cut batch
	// never complete — their durability is decided by recovery. The
	// clock stamp matters: Crash(vt) replays the device's pending
	// queue only up to vt, so the failure instant must be recorded.
	// Any other panic kills the process from this goroutine, before the
	// owner's defers can run: dump the flight ring first, so the sidecar
	// still testifies to what was acked.
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(core.PowerFailure); !ok {
				e.cfg.Flight.Dump()
				panic(r)
			}
			s.lastVT.Store(th.Now())
		}
	}()
	batch := make([]*Request, 0, e.cfg.MaxBatch)
	for {
		s.lastVT.Store(th.Now())
		batch = batch[:0]
		s.popLive(e, e.cfg.MaxBatch, th.Now(), e.cfg.DeadlineNS, &batch)
		switch {
		case len(batch) > 0:
			// Group commit: wait out the batch window for stragglers.
			deadline := th.Now() + e.cfg.BatchWindowNS
			for len(batch) < e.cfg.MaxBatch && th.Now() < deadline {
				before := len(batch)
				s.popLive(e, e.cfg.MaxBatch-len(batch), th.Now(), e.cfg.DeadlineNS, &batch)
				if len(batch) == before {
					th.Compute(pollNS)
				}
			}
		case !e.inputsDone.Load():
			if e.cfg.WallClock {
				th.Park()
				<-s.wake
				th.Resume()
				s.resumedVT = th.Now()
			} else {
				th.Compute(pollNS)
				if e.cfg.IdleSleep > 0 {
					time.Sleep(e.cfg.IdleSleep)
				}
			}
			continue
		default:
			// A Submit that landed between the pop above and the
			// inputsDone load would be stranded for Drain's ErrDraining
			// sweep even though it was accepted before shutdown began.
			// The load happens-after any Submit that preceded InputsDone,
			// so one final pop is guaranteed to see such a request; only
			// an empty queue here is safe to abandon.
			s.popLive(e, e.cfg.MaxBatch, th.Now(), e.cfg.DeadlineNS, &batch)
			if len(batch) == 0 {
				return
			}
		}
		e.execBatch(s, th, batch)
	}
}

// execBatch is the paper's serving order and nothing else: run the
// live requests in one transaction, pay the durable barrier once for
// the whole batch, emit the completion record, complete the requests.
// Deadline shedding already happened at pop time. Once a barrier has
// failed, nothing runs: the batch completes with ErrDurable.
func (e *Executor) execBatch(s *shard, th *core.Thread, live []*Request) {
	if e.failed.Load() {
		for _, req := range live {
			req.Err = ErrDurable
		}
		e.complete(s, e.begin(s, batchSwept, live, th.Now()))
		return
	}
	d := e.begin(s, batchExecuted, live, th.Now())
	th.Atomic(func(tx *core.Tx) {
		for _, req := range live {
			req.run(tx, e.st.kv)
		}
	})
	// Each boundary is stamped at the moment it happens: under
	// WallClock the lifecycle clock is "now", so a stamp deferred past
	// the barrier would order after it. Nothing drains the WPQ on the
	// ack path, so the drain boundary always sits on the execute end;
	// without a barrier the journal boundary does too (zero-width
	// phases keep the chain telescoping).
	d.ran = e.clock(th.Now())
	d.drained, d.flushed = d.ran, d.ran
	if e.durable && slices.ContainsFunc(live, func(req *Request) bool { return req.Op != OpGet }) {
		// The durable-ack barrier: the batch's committed writes are
		// journaled and the journal batch is written to the host file.
		// No member completes before the flush returns.
		barrier := time.Now()
		e.st.wal.append(live)
		err := e.st.FlushJournal()
		d.barrierNS = time.Since(barrier).Nanoseconds()
		d.flushed = e.clock(th.Now())
		if err != nil {
			// Fail-stop, set before any member completes: the batch's
			// reads saw its unjournaled writes, so they fail too.
			e.failed.Store(true)
			for _, req := range live {
				req.Err, req.Found = ErrDurable, false
			}
		}
	}
	d.end = th.Now()
	s.lastVT.Store(d.end)
	e.complete(s, d)
}

// begin resets shard s's scratch record to members closing at virtual
// time now, every later boundary collapsed onto that instant — already
// the whole story for a shed or swept group; execBatch moves the
// boundaries out as its steps happen.
func (e *Executor) begin(s *shard, kind batchKind, members []*Request, now int64) *completion {
	t := e.clock(now)
	s.done = completion{kind: kind, shard: s.id, members: members,
		closed: t, ran: t, drained: t, flushed: t, end: now}
	return &s.done
}

// complete stamps the ack boundary, fans one record out to every
// observer — each nil-safe, each one call — and only then releases the
// members to their submitters. Nothing here advances a simulated clock
// or allocates.
func (e *Executor) complete(s *shard, d *completion) {
	d.acked = e.clock(d.end)
	e.account(s, d)
	e.cfg.Flight.observe(d)
	for _, req := range d.members {
		if req.Done != nil {
			close(req.Done)
		}
	}
}

// account is the always-on bookkeeping a record feeds: the shard's
// shed gauge and histograms (under statsMu, once per batch) that
// Snapshot reports, the registry's srv_* counters, and the obs
// queue-depth track.
func (e *Executor) account(s *shard, d *completion) {
	n := int64(len(d.members))
	switch d.kind {
	case batchShed:
		s.shed.Add(n)
		e.met.Add(metrics.CtrSrvShed, n)
	case batchExecuted:
		s.statsMu.Lock()
		for _, req := range d.members {
			if !req.Warmup {
				s.latency.Record(d.acked - req.enq)
			}
		}
		s.batchSizes.Record(n)
		if d.barrierNS > 0 {
			s.ackLat.Record(d.barrierNS)
		}
		s.statsMu.Unlock()
		e.met.Add(metrics.CtrSrvBatches, 1)
		e.met.Add(metrics.CtrSrvBatchedOps, n)
		e.rec.CountShared(obs.TrackServerQueue, d.end, float64(e.queued.Load()))
	}
}

// LastVT returns the latest shard clock — after a drain, the slowest
// shard's final timestamp, which bounds the run's virtual elapsed time
// and is the instant Store.Crash must cover.
func (e *Executor) LastVT() (vt int64) {
	for _, s := range e.shards {
		vt = max(vt, s.lastVT.Load())
	}
	return vt
}

// InputsDone tells the workers no further Submit will arrive; each
// exits once its queue is empty, and a parked one is woken to notice.
// Used by loadsim, where the run ends when the generated arrivals are
// all served.
func (e *Executor) InputsDone() {
	e.inputsDone.Store(true)
	for _, s := range e.shards {
		s.signal()
	}
}

// Drain stops admission, waits for the workers to finish what is
// queued, and completes any leftover requests with ErrDraining. After
// Drain the machine's worker threads are detached; the store can be
// crashed and saved.
func (e *Executor) Drain() {
	e.draining.Store(true)
	e.InputsDone()
	e.wg.Wait()
	// The workers exit when they see an empty queue, but a Submit
	// racing with shutdown can land an entry after that look; sweep it,
	// at the dead worker's final clock.
	for _, s := range e.shards {
		var leftover []*Request
		vt := s.lastVT.Load()
		s.popLive(e, math.MaxInt, vt, -1, &leftover)
		if len(leftover) == 0 {
			continue
		}
		for _, req := range leftover {
			req.Err = ErrDraining
		}
		e.complete(s, e.begin(s, batchSwept, leftover, vt))
	}
}
