package obs

// Request-lifecycle records: the serving path's per-request span
// chain. Where the Phase taxonomy decomposes one *transaction*, a
// ReqRecord decomposes one *served request* — from wire parse (or
// loadsim arrival) through shard-queue wait, batch formation, the
// batched transaction execute, the durable-ack barrier's WPQ drain
// and journal flush, to the writer's acknowledgment. The executor
// stamps boundary timestamps, not durations: phase i is the interval
// [TS[i], TS[i+1]), so the per-phase durations telescope to exactly
// the end-to-end latency — the attribution property the serving-path
// observability work exists for ("is p99 queue wait or journal
// flush?").
//
// Timestamps are whatever clock the executor's tracer runs on:
// virtual nanoseconds under loadsim/lockstep, host nanoseconds since
// the tracer's epoch for the real TCP server. The trace exporter does
// not care — both render as one timeline.

// ReqPhase identifies one slice of a served request's lifecycle.
type ReqPhase uint8

const (
	ReqParse   ReqPhase = iota // wire parse / loadsim arrival generation
	ReqQueue                   // shard-queue wait: enqueue → pop
	ReqBatch                   // batch formation: pop → transaction start (group-commit window)
	ReqExecute                 // batched transaction: begin → commit returned
	ReqDrain                   // durable-ack barrier: WPQ drain onto media
	ReqJournal                 // durable-ack barrier: journal batch flush to the host file
	ReqAck                     // barrier done → completion delivered to the submitter
	NumReqPhases
)

// reqPhaseNames are the stable exporter names, index by ReqPhase.
var reqPhaseNames = [NumReqPhases]string{
	"req-parse", "req-queue", "req-batch", "req-execute",
	"req-drain", "req-journal", "req-ack",
}

// String names the request phase as the trace exporter does.
func (p ReqPhase) String() string {
	if int(p) < len(reqPhaseNames) {
		return reqPhaseNames[p]
	}
	return "req-phase?"
}

// ReqRecord is one sampled request's lifecycle. TS[0] is the parse
// start and TS[i+1] the end of phase ReqPhase(i): zero-width phases
// are legal (a read batch has an empty drain/journal interval) and
// the phase durations always sum to TS[NumReqPhases]-TS[0], the
// request's end-to-end latency.
type ReqRecord struct {
	ID    uint64 // arrival index from the executor's sampler
	Shard int32
	Op    uint8 // server.Op value; opaque to this package
	Shed  bool  // deadline-shed at pop: TS[2:] collapse to the shed instant
	TS    [NumReqPhases + 1]int64
}

// Stamp sets boundary i to ts, clamped so boundaries never regress.
// The clamp matters under lockstep: a shard thread whose clock trails
// the submitting thread's can pop a request at a virtual time before
// its enqueue stamp, and a negative-width phase would break the
// telescoping-durations property. Clamping charges such a phase zero
// time instead.
func (q *ReqRecord) Stamp(i int, ts int64) {
	if i > 0 && ts < q.TS[i-1] {
		ts = q.TS[i-1]
	}
	q.TS[i] = ts
}

// maxRequests bounds the retained request records: a long-running
// `ptmserve -trace` keeps the newest maxRequests and forgets the rest.
// Every deterministic run in the repository (loadsim, the CI trace
// step, the golden trace) samples fewer than this and so keeps every
// chain.
const maxRequests = 1 << 16

// Request retains one completed request-lifecycle record, displacing
// the oldest once maxRequests are held. Safe on a nil receiver and on
// recorders built without tracing (both no-op), and safe for
// concurrent use — shard workers finish requests concurrently on the
// TCP server.
func (r *Recorder) Request(rec ReqRecord) {
	if r == nil || !r.tracing {
		return
	}
	r.mu.Lock()
	if len(r.requests) < maxRequests {
		r.requests = append(r.requests, rec)
	} else {
		r.requests[r.oldest] = rec
		r.oldest = (r.oldest + 1) % maxRequests
	}
	r.mu.Unlock()
}

// Requests returns a copy of the retained request records, oldest
// first (tests, report tooling and the trace exporter).
func (r *Recorder) Requests() []ReqRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]ReqRecord, 0, len(r.requests))
	out = append(out, r.requests[r.oldest:]...)
	out = append(out, r.requests[:r.oldest]...)
	r.mu.Unlock()
	return out
}
