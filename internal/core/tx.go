package core

import (
	"fmt"

	"goptm/internal/membus"
	"goptm/internal/memdev"
	"goptm/internal/metrics"
	"goptm/internal/obs"
	"goptm/internal/simtime"
	"goptm/internal/stats"
)

// AbortReason classifies why a transaction attempt aborted.
type AbortReason uint8

// Abort reasons, in the order of the registry's abort counters
// (metrics.CtrAbortLockConflict + reason).
const (
	// AbortLockConflict: a needed orec was locked by another thread
	// (encounter-time or commit-time acquisition failure).
	AbortLockConflict AbortReason = iota
	// AbortValidation: a read was invalidated by a concurrent commit
	// (torn orec read, failed snapshot extension, or commit-time
	// read-set validation failure).
	AbortValidation
	// AbortCapacity: an HTM attempt overflowed the speculative write
	// set and must fall back to the software path.
	AbortCapacity
	// AbortExplicit: the transaction body called Tx.Abort.
	AbortExplicit
	// NumAbortReasons sizes per-reason counter arrays.
	NumAbortReasons
)

// String names the reason as metrics.Snapshot renders it.
func (r AbortReason) String() string {
	switch r {
	case AbortLockConflict:
		return "lock-conflict"
	case AbortValidation:
		return "validation"
	case AbortCapacity:
		return "htm-capacity"
	case AbortExplicit:
		return "explicit"
	default:
		return fmt.Sprintf("AbortReason(%d)", int(r))
	}
}

// abortEventNames are the preallocated trace-marker names, so the
// abort record path never formats a string.
var abortEventNames = [NumAbortReasons]string{
	"abort:lock-conflict", "abort:validation", "abort:htm-capacity", "abort:explicit",
}

// abortSignal is the panic value used to unwind an aborted attempt.
type abortSignal struct{ reason AbortReason }

// abortWith unwinds the current attempt with the given reason.
func abortWith(r AbortReason) {
	panic(abortSignal{reason: r})
}

// ErrLogOverflow reports a transaction exceeding MaxLogEntries; it is
// delivered as a panic because it is a configuration error, not a
// recoverable condition.
type ErrLogOverflow struct{ Entries int }

// Error implements the error interface.
func (e ErrLogOverflow) Error() string {
	return fmt.Sprintf("core: transaction log overflow (%d entries)", e.Entries)
}

// lockRec remembers an acquired orec and the version to restore on
// abort.
type lockRec struct {
	idx    int
	oldVer uint64
}

// readRec remembers an orec read and the exact version observed, so
// validation can detect any intervening commit (version equality, as
// in TinySTM — a <=rv check alone is unsound once the timestamp is
// extended mid-transaction).
type readRec struct {
	idx int
	ver uint64
}

// redoEntry is the volatile mirror of one redo-log record.
type redoEntry struct {
	addr memdev.Addr
	val  uint64
}

// undoRec is the volatile mirror of one undo-log record.
type undoRec struct {
	addr memdev.Addr
	old  uint64
}

// ThreadStats aggregates a thread's transaction outcomes.
type ThreadStats struct {
	Commits      int64
	Aborts       int64
	AbortReasons [NumAbortReasons]int64 // aborts classified by cause
	MaxLogEntry  int                    // high-water mark of log entries in one txn
	MaxLogLines  int                    // high-water mark of distinct log lines (§IV-B)
	ReadOnlyTxns int64
	HTMFallbacks int64 // transactions that fell back to the software path
}

// Thread is one worker's handle onto the TM. All methods must be
// called from the goroutine that owns the thread.
type Thread struct {
	tm    *TM
	ctx   *membus.Context
	tid   int
	owner uint64
	desc  memdev.Addr
	rng   *simtime.Rand

	// Per-attempt state, reused across attempts to avoid allocation.
	rset    []readRec
	lockVer *probeMap // orec idx -> pre-lock version, for validation
	wpos    *probeMap // addr -> redo-log entry index
	wlog    []redoEntry
	flushed int // redo-log entries already flushed (incremental mode)
	locks   []lockRec
	undo    []undoRec
	allocs  []memdev.Addr
	frees   []memdev.Addr
	wbLines []uint64 // writeback line-dedup scratch (commitLazy)

	logHash     uint32 // running marker checksum over the undo log
	mode        Algo   // algorithm of the current attempt (HTM may fall back)
	capacityHit bool   // the HTM attempt overflowed; fall back immediately
	stats       ThreadStats
	latency     stats.Histogram     // committed-transaction latency (virtual ns)
	rec         *obs.ThreadRecorder // nil when observability is off
}

// Thread creates the worker handle for tid. Each tid must be claimed
// exactly once and driven by a single goroutine.
func (tm *TM) Thread(tid int) *Thread {
	if tid < 0 || tid >= tm.cfg.Threads {
		panic(fmt.Sprintf("core: tid %d out of range", tid))
	}
	return &Thread{
		tm:      tm,
		ctx:     tm.bus.NewContext(tid),
		tid:     tid,
		owner:   uint64(tid) + 1,
		desc:    tm.descBase(tid),
		rng:     simtime.NewRand(uint64(tid)*0x9E3779B9 + 1),
		wpos:    newProbeMap(64),
		lockVer: newProbeMap(16),
		rec:     tm.rec.Thread(tid),
	}
}

// Ctx exposes the thread's memory context (examples, workload setup).
func (th *Thread) Ctx() *membus.Context { return th.ctx }

// TID reports the thread id.
func (th *Thread) TID() int { return th.tid }

// Now reports the thread's virtual time.
func (th *Thread) Now() int64 { return th.ctx.Now() }

// Rand exposes the thread's deterministic RNG for workload drivers.
func (th *Thread) Rand() *simtime.Rand { return th.rng }

// Stats returns the thread's counters.
func (th *Thread) Stats() ThreadStats { return th.stats }

// Latency returns the thread's committed-transaction latency
// histogram (total Atomic duration in virtual ns, including retries).
func (th *Thread) Latency() *stats.Histogram { return &th.latency }

// Detach releases the thread from the virtual-time barrier.
func (th *Thread) Detach() { th.ctx.Detach() }

// Compute advances the thread's clock by ns of non-transactional work.
func (th *Thread) Compute(ns int64) { th.ctx.Compute(ns) }

// entryAddr returns the persistent address of log entry i's first
// word (addr word; the value word follows).
func (th *Thread) entryAddr(i int) memdev.Addr {
	return th.desc + descEntries + memdev.Addr(2*i)
}

// fence issues an sfence unless the NoFence ablation elides every
// fence, or the MutateDropFence mutation elides this named site.
// Sites: "lazy:F1" (log before marker), "lazy:F2" (marker before
// writeback), "lazy:F3" (writeback before log reclaim), "eager:Fw"
// (undo record before in-place update), "eager:Fc1" (in-place data
// before log discard), "eager:Fc2" (idle marker durable),
// "eager:Fr1"/"eager:Fr2" (rollback restores / idle marker).
func (th *Thread) fence(site string) {
	if th.tm.cfg.NoFence || th.tm.cfg.MutateDropFence == site {
		return
	}
	th.ctx.SFence()
}

// Tx is one transaction attempt. It is only valid inside the Atomic
// body it was passed to.
type Tx struct {
	th   *Thread
	rv   uint64 // read version (TL2 snapshot timestamp)
	mode Algo   // algorithm executing this attempt
}

// Abort abandons the current attempt; Atomic will retry it.
func (tx *Tx) Abort() {
	abortWith(AbortExplicit)
}

// Atomic runs fn as a transaction, retrying on conflict until it
// commits. fn may run multiple times and must not have side effects
// outside the transaction (other than via tx). Under AlgoHTM, a
// capacity abort or HTMRetries conflict aborts fall the transaction
// back to the software path (orec-lazy), as a real TSX deployment
// must.
func (th *Thread) Atomic(fn func(tx *Tx)) {
	start := th.ctx.Now()
	fellBack := false
	for attempt := 0; ; attempt++ {
		mode := th.tm.cfg.Algo
		if mode == AlgoHTM && (attempt >= HTMRetries || th.capacityHit) {
			if !fellBack {
				fellBack = true
				th.stats.HTMFallbacks++
			}
			mode = OrecLazy
		}
		attemptStart := th.ctx.Now()
		if th.runAttempt(fn, mode) {
			th.stats.Commits++
			th.tm.met.Add(metrics.CtrCommits, 1)
			th.capacityHit = false
			now := th.ctx.Now()
			th.tm.met.Tick(now)
			th.latency.Record(now - start)
			th.rec.Span(obs.PhaseTxn, start, now)
			if th.rec.Tracing() && th.stats.Commits&(counterSampleEvery-1) == 0 {
				th.sampleCounters(now)
			}
			return
		}
		th.stats.Aborts++
		th.tm.met.Add(metrics.CtrAborts, 1)
		// The whole doomed attempt — body execution plus rollback — is
		// wasted virtual time, attributed to the abort phase.
		th.rec.Span(obs.PhaseAbort, attemptStart, th.ctx.Now())
		th.backoff(attempt)
	}
}

// counterSampleEvery is the committed-transaction stride at which a
// tracing thread samples the machine's counter tracks (power of two).
const counterSampleEvery = 32

// sampleCounters emits one sample per counter track at virtual time
// now. Tracing-only path: it takes the shared controller and cache
// locks, which the disabled and breakdown-only configurations must
// never pay for.
func (th *Thread) sampleCounters(now int64) {
	bus := th.tm.bus
	ctl := bus.Controller()
	th.rec.Count(obs.TrackWPQOccupancy, now, float64(ctl.OccupancyAt(now)))
	wb, rb := ctl.Utilization()
	th.rec.Count(obs.TrackMediaWriteBusy, now, float64(wb)/1e6)
	th.rec.Count(obs.TrackMediaReadBusy, now, float64(rb)/1e6)
	th.rec.Count(obs.TrackCacheHitRate, now, 100*bus.Cache().HitRate())
	if pc := bus.PageCache(); pc != nil {
		resident, dirty := pc.Resident()
		th.rec.Count(obs.TrackPageResidency, now, float64(resident))
		th.rec.Count(obs.TrackPageDirty, now, float64(dirty))
	}
}

// abortCounter maps an abort reason to its registry counter. The
// per-reason counters are contiguous and in AbortReason order.
func abortCounter(r AbortReason) metrics.Counter {
	return metrics.CtrAbortLockConflict + metrics.Counter(r)
}

// noteAbort classifies an aborted attempt on the thread, the TM, and
// the trace.
func (th *Thread) noteAbort(r AbortReason) {
	th.stats.AbortReasons[r]++
	th.tm.met.Add(abortCounter(r), 1)
	th.rec.Instant(th.ctx.Now(), abortEventNames[r])
}

// runAttempt executes one attempt in the given mode, converting abort
// panics into a false return after rolling the attempt back.
func (th *Thread) runAttempt(fn func(tx *Tx), mode Algo) (ok bool) {
	beginStart := th.ctx.Now()
	th.beginAttempt()
	th.mode = mode
	defer func() {
		if r := recover(); r != nil {
			switch sig := r.(type) {
			case abortSignal:
				th.noteAbort(sig.reason)
				th.onAbort()
				ok = false
				return
			case htmCapacity:
				th.capacityHit = true
				th.noteAbort(AbortCapacity)
				th.onAbort()
				ok = false
				return
			case PowerFailure:
				// Simulated power failure (crash injection): the
				// machine stops dead — nothing is rolled back, the
				// persistent image stays exactly as the crash found
				// it. Propagate to the test harness.
				panic(r)
			default:
				// A foreign panic (a bug in the transaction body)
				// must not leak held orec locks or speculative
				// in-place state: roll back, then propagate.
				th.onAbort()
				panic(r)
			}
		}
	}()
	tx := Tx{th: th, rv: th.tm.orecs.ReadClock(), mode: mode}
	if mode != AlgoHTM {
		th.ctx.MetaOp() // clock read
	}
	th.rec.Span(obs.PhaseBegin, beginStart, th.ctx.Now())
	fn(&tx)
	th.commit(&tx)
	return true
}

// beginAttempt resets the per-attempt buffers.
func (th *Thread) beginAttempt() {
	th.rset = th.rset[:0]
	th.wlog = th.wlog[:0]
	th.flushed = 0
	th.logHash = logHashSeed
	th.lockVer.reset()
	th.locks = th.locks[:0]
	th.undo = th.undo[:0]
	th.allocs = th.allocs[:0]
	th.frees = th.frees[:0]
	th.wpos.reset()
}

// onAbort rolls back whatever the attempt changed.
func (th *Thread) onAbort() {
	if th.mode == OrecEager {
		th.rollbackEager()
	} else {
		th.releaseLocksRestoring()
	}
	// Blocks allocated by the doomed attempt are returned; the blocks
	// it wanted to free stay live.
	for _, a := range th.allocs {
		th.tm.heap.Free(th.ctx, a)
	}
}

// releaseLocksRestoring unlocks every held orec to its pre-lock
// version (abort path).
func (th *Thread) releaseLocksRestoring() {
	for _, l := range th.locks {
		th.tm.orecs.Release(l.idx, l.oldVer)
		th.ctx.MetaOp()
	}
}

// releaseLocks unlocks every held orec, publishing version wv (commit
// path).
func (th *Thread) releaseLocks(wv uint64) {
	for _, l := range th.locks {
		th.tm.orecs.Release(l.idx, wv)
		th.ctx.MetaOp()
	}
}

// backoff applies the configured contention-management policy in
// virtual time after an aborted attempt.
func (th *Thread) backoff(attempt int) {
	switch th.tm.cfg.Backoff {
	case BackoffNone:
		return
	case BackoffLinear:
		th.ctx.Compute(int64(th.rng.Uint64n(128)) + 32)
		return
	default: // BackoffExponential
		if attempt > 8 {
			attempt = 8
		}
		window := int64(64) << attempt
		th.ctx.Compute(int64(th.rng.Uint64n(uint64(window))) + 32)
	}
}

// Load performs a transactional read of the word at a.
func (tx *Tx) Load(a memdev.Addr) uint64 {
	switch tx.mode {
	case OrecEager:
		return tx.loadEager(a)
	case AlgoHTM:
		return tx.loadHTM(a)
	default:
		return tx.loadLazy(a)
	}
}

// Store performs a transactional write of the word at a.
func (tx *Tx) Store(a memdev.Addr, v uint64) {
	switch tx.mode {
	case OrecEager:
		tx.storeEager(a, v)
	case AlgoHTM:
		tx.storeHTM(a, v)
	default:
		tx.storeLazy(a, v)
	}
}

// Alloc allocates words payload words from the persistent heap. The
// allocation is undone if the transaction aborts.
func (tx *Tx) Alloc(words uint64) memdev.Addr {
	a := tx.th.tm.heap.Alloc(tx.th.ctx, words)
	tx.th.allocs = append(tx.th.allocs, a)
	return a
}

// AllocZeroed is Alloc plus zero-initialization of the payload. The
// zeroing bypasses the transaction log: the block is private to this
// transaction until a committed pointer publishes it, and aborts
// return the whole block to the allocator. The zero lines are flushed
// so they are durable before the commit fence orders the publishing
// write. Use it for blocks whose words are read before being
// individually written (e.g. hash bucket arrays).
func (tx *Tx) AllocZeroed(words uint64) memdev.Addr {
	th := tx.th
	a := tx.Alloc(words)
	for w := uint64(0); w < words; w++ {
		th.ctx.Store(a+memdev.Addr(w), 0)
	}
	for w := uint64(0); w < words; w += memdev.WordsPerLine {
		th.ctx.CLWB(a + memdev.Addr(w))
	}
	return a
}

// Free schedules the block at payload address a for release; the free
// takes effect only if the transaction commits.
func (tx *Tx) Free(a memdev.Addr) {
	tx.th.frees = append(tx.th.frees, a)
}

// commit dispatches to the algorithm's commit protocol; it panics
// abortSignal on validation failure.
func (th *Thread) commit(tx *Tx) {
	switch tx.mode {
	case OrecEager:
		th.commitEager(tx)
	case AlgoHTM:
		th.commitHTM(tx)
	default:
		th.commitLazy(tx)
	}
	// The attempt is now durable: apply deferred frees.
	for _, a := range th.frees {
		th.tm.heap.Free(th.ctx, a)
	}
}

// validateReadSet checks that every orec in the read set still holds
// exactly the version observed at read time. Locations the thread has
// since locked validate against the saved pre-lock version: if anyone
// committed in between, the read is stale and the transaction must
// abort.
func (th *Thread) validateReadSet() bool {
	t := th.tm.orecs
	for _, rr := range th.rset {
		cur := t.Load(rr.idx)
		if lockedWord(cur) {
			if versionOf(cur) != th.owner {
				return false
			}
			if lv, _ := th.lockVer.get(uint64(rr.idx)); lv != rr.ver {
				return false
			}
		} else if versionOf(cur) != rr.ver {
			return false
		}
	}
	th.ctx.MetaOp() // validation pass charged as one metadata sweep
	return true
}

// extend attempts timestamp extension (TinySTM style): if every prior
// read is still at its observed version, the snapshot can move to the
// current clock. Returns whether the extension succeeded.
func (tx *Tx) extend() bool {
	start := tx.th.ctx.Now()
	newRv := tx.th.tm.orecs.ReadClock()
	tx.th.ctx.MetaOp()
	ok := tx.th.validateReadSet()
	tx.th.rec.Span(obs.PhaseValidate, start, tx.th.ctx.Now())
	if !ok {
		return false
	}
	tx.rv = newRv
	return true
}

// noteLogHighWater records log-footprint stats (§IV-B) and feeds the
// log-volume counters (each entry is two words: addr + value).
func (th *Thread) noteLogHighWater(entries int) {
	if entries > th.stats.MaxLogEntry {
		th.stats.MaxLogEntry = entries
	}
	lines := (2*entries + memdev.WordsPerLine - 1) / memdev.WordsPerLine
	if lines > th.stats.MaxLogLines {
		th.stats.MaxLogLines = lines
	}
	th.tm.met.Add(metrics.CtrLogEntries, int64(entries))
	th.tm.met.Add(metrics.CtrLogBytes, int64(entries)*2*metrics.WordBytes)
}

// Small wrappers around the orec word helpers keep call sites terse.
func lockedWord(v uint64) bool  { return v&1 == 1 }
func versionOf(v uint64) uint64 { return v >> 1 }
