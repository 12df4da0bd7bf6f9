// Package obs is the observability layer of the simulated machine: a
// per-thread, allocation-light span recorder keyed to *virtual*
// nanoseconds, phase-breakdown accounting that rolls the spans up into
// per-run "time spent in X" tables, and a Chrome trace-event / Perfetto
// JSON exporter (trace.go) so a run can be inspected in ui.perfetto.dev
// with one lane per simulated worker.
//
// The design goal is zero overhead when disabled: every recording
// method is safe on a nil receiver and returns immediately, so the
// runtime can instrument unconditionally and the recorder is simply
// left nil in production measurement paths. When a Recorder is
// attached, phase durations are always accumulated into the breakdown
// counters (a handful of integer adds per span); individual span and
// counter events are retained only when the Recorder was built with
// tracing enabled.
//
// Recording is virtual-time accounting, not host profiling: a span's
// duration is the simulated nanoseconds a thread's clock moved through
// the phase, which is exactly the quantity the paper's overhead
// decompositions (§III–V) attribute.
package obs

import "sync"

// Phase identifies one slice of the transaction lifecycle or of the
// memory system's stall taxonomy.
type Phase uint8

// The span taxonomy. Protocol phases (Begin..Abort) are recorded by
// the PTM runtime around protocol steps; bus phases (FenceWait,
// WPQStall, MediaWait) are recorded by the memory system inside
// whatever protocol phase triggered the traffic, so the two groups
// overlap by construction (a commit fence's wait shows up under both
// FenceWait and the enclosing protocol window's gap). Txn is the
// enclosing whole-transaction span.
const (
	PhaseTxn       Phase = iota // one Atomic call, begin to commit (incl. retries)
	PhaseBegin                  // attempt setup + snapshot timestamp read
	PhaseValidate               // read-set validation + commit-time lock acquisition
	PhaseDrain                  // write-set drain: log writes/flush issue, in-place writeback
	PhaseCommit                 // durable commit point: marker write + log reclaim
	PhaseAbort                  // wasted virtual time of an aborted attempt + rollback
	PhaseFenceWait              // sfence: waiting for outstanding flushes to be accepted
	PhaseWPQStall               // flush accept delayed by a full write pending queue
	PhaseMediaWait              // cache miss serviced by the NVM media (port wait + transfer)
	NumPhases
)

// phaseNames are the stable exporter/table names, index by Phase.
var phaseNames = [NumPhases]string{
	"txn", "begin", "validate", "drain", "commit", "abort",
	"fence-wait", "wpq-stall", "media-wait",
}

// String names the phase as the trace exporter and tables do.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase?"
}

// Track identifies one counter track of the trace.
type Track uint8

// Counter tracks. Cumulative tracks (media busy, XPLines, commits)
// grow monotonically; the rest are instantaneous samples.
const (
	TrackWPQOccupancy   Track = iota // undrained WPQ entries at the sample time
	TrackMediaWriteBusy              // cumulative NVM write-port busy ms
	TrackMediaReadBusy               // cumulative NVM read-port busy ms
	TrackCacheHitRate                // CPU cache hit rate, percent
	TrackPageResidency               // resident Memory-Mode page-cache frames
	TrackPageDirty                   // dirty page-cache frames
	TrackSweepCells                  // experiment-sweep cells completed (runner progress)
	TrackMediaWriteXP                // cumulative 256 B XPLine media writes (metrics registry)
	TrackMediaReadXP                 // cumulative 256 B XPLine media reads (metrics registry)
	TrackCommits                     // cumulative committed transactions (metrics registry)
	TrackServerQueue                 // queued requests across server executor shards
	NumTracks
)

var trackNames = [NumTracks]string{
	"wpq_occupancy", "media_write_busy_ms", "media_read_busy_ms",
	"cache_hit_pct", "pagecache_resident", "pagecache_dirty",
	"sweep_cells_done",
	"media_write_xplines", "media_read_xplines", "commits_total",
	"server_queue_depth",
}

// String names the counter track as the trace exporter does.
func (t Track) String() string {
	if int(t) < len(trackNames) {
		return trackNames[t]
	}
	return "track?"
}

// span is one completed trace event on a thread lane.
type span struct {
	phase      Phase
	start, end int64 // virtual ns
}

// instant is one point event on a thread lane (abort markers).
type instant struct {
	ts   int64
	name string // constant strings only; the record path must not allocate
}

// counterSample is one (track, ts, value) counter point.
type counterSample struct {
	track Track
	ts    int64
	value float64
}

// ThreadRecorder collects one simulated worker's spans. It is owned by
// the thread's goroutine; all methods are safe on a nil receiver (and
// then do nothing), which is how the disabled configuration costs
// nothing.
type ThreadRecorder struct {
	tid     int
	tracing bool

	accNS    [NumPhases]int64 // breakdown: total virtual ns per phase
	accCount [NumPhases]int64 // breakdown: spans per phase

	spans    []span
	instants []instant
	counts   []counterSample
}

// Span records a completed [start, end) phase span in virtual ns.
func (r *ThreadRecorder) Span(p Phase, start, end int64) {
	if r == nil || end <= start {
		return
	}
	r.accNS[p] += end - start
	r.accCount[p]++
	if r.tracing {
		r.spans = append(r.spans, span{phase: p, start: start, end: end})
	}
}

// Instant records a point event (e.g. an abort with its reason). name
// must be a constant or otherwise retained string; the recorder stores
// it as-is.
func (r *ThreadRecorder) Instant(ts int64, name string) {
	if r == nil || !r.tracing {
		return
	}
	r.instants = append(r.instants, instant{ts: ts, name: name})
}

// Count records one counter sample on track t.
func (r *ThreadRecorder) Count(t Track, ts int64, v float64) {
	if r == nil || !r.tracing {
		return
	}
	r.counts = append(r.counts, counterSample{track: t, ts: ts, value: v})
}

// Tracing reports whether full event retention is on; callers use it
// to skip building values that only feed trace events.
func (r *ThreadRecorder) Tracing() bool { return r != nil && r.tracing }

// Breakdown returns the thread's phase accounting.
func (r *ThreadRecorder) Breakdown() Breakdown {
	var b Breakdown
	if r == nil {
		return b
	}
	b.NS = r.accNS
	b.Count = r.accCount
	return b
}

// Recorder owns the per-thread recorders of one run plus a shared
// counter lane for components not bound to a thread (the memory
// controller). A nil *Recorder is the disabled configuration: Thread
// returns nil, and every downstream recording call no-ops.
type Recorder struct {
	tracing bool
	threads []*ThreadRecorder

	mu       sync.Mutex
	shared   []counterSample
	requests []ReqRecord // request-lifecycle chains, see Request
}

// New builds a recorder for threads workers. With trace set, all span,
// instant, and counter events are retained for export; otherwise only
// the O(1)-size breakdown accounting runs.
func New(threads int, trace bool) *Recorder {
	r := &Recorder{tracing: trace, threads: make([]*ThreadRecorder, threads)}
	for i := range r.threads {
		tr := &ThreadRecorder{tid: i, tracing: trace}
		if trace {
			tr.spans = make([]span, 0, 4096)
		}
		r.threads[i] = tr
	}
	return r
}

// Thread returns worker tid's recorder, or nil when r is nil (the
// disabled configuration) or tid is out of range.
func (r *Recorder) Thread(tid int) *ThreadRecorder {
	if r == nil || tid < 0 || tid >= len(r.threads) {
		return nil
	}
	return r.threads[tid]
}

// Tracing reports whether the recorder retains trace events.
func (r *Recorder) Tracing() bool { return r != nil && r.tracing }

// CountShared records a counter sample from a shared component (safe
// for concurrent use; the per-thread Count is the cheap path).
func (r *Recorder) CountShared(t Track, ts int64, v float64) {
	if r == nil || !r.tracing {
		return
	}
	r.mu.Lock()
	r.shared = append(r.shared, counterSample{track: t, ts: ts, value: v})
	r.mu.Unlock()
}

// Breakdown merges every thread's phase accounting.
func (r *Recorder) Breakdown() Breakdown {
	var b Breakdown
	if r == nil {
		return b
	}
	for _, tr := range r.threads {
		tb := tr.Breakdown()
		b.Merge(&tb)
	}
	return b
}

// EventCount reports retained trace events across all threads (tests;
// the disabled recorder must hold zero).
func (r *Recorder) EventCount() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, tr := range r.threads {
		n += len(tr.spans) + len(tr.instants) + len(tr.counts)
	}
	r.mu.Lock()
	n += len(r.shared) + len(r.requests)
	r.mu.Unlock()
	return n
}
