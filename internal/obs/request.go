package obs

import "slices"

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
// Timestamps are whatever clock the executor's lifecycle stamps run
// on: virtual nanoseconds under loadsim/lockstep, host nanoseconds
// since executor start for the real TCP server. The trace exporter
// does not care — both render as one timeline. The records themselves
// are the server's flight-ring records (server.FlightRecord.Chain),
// handed over once the run has drained.

// ReqPhase identifies one slice of a served request's lifecycle.
type ReqPhase uint8

const (
	ReqParse   ReqPhase = iota // wire parse / loadsim arrival: zero-width, the chain starts at enqueue
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

// ReqRecord is one served request's lifecycle. TS[0] is the parse
// start and TS[i+1] the end of phase ReqPhase(i): zero-width phases
// are legal (a read batch has an empty drain/journal interval) and
// the phase durations always sum to TS[NumReqPhases]-TS[0], the
// request's end-to-end latency.
type ReqRecord struct {
	ID    uint64 // the flight record's completion sequence number
	Shard int32
	Op    uint8 // server.Op value; opaque to this package
	Shed  bool  // deadline-shed at pop: TS[2:] collapse to the shed instant
	TS    [NumReqPhases + 1]int64
}

// Request retains one completed request-lifecycle record. The bound
// lives upstream, in the server's flight ring, which hands over at
// most its own capacity. Safe on a nil receiver and on recorders built
// without tracing (both no-op), and safe for concurrent use.
func (r *Recorder) Request(rec ReqRecord) {
	if r == nil || !r.tracing {
		return
	}
	r.mu.Lock()
	r.requests = append(r.requests, rec)
	r.mu.Unlock()
}

// Requests returns a copy of the retained request records, oldest
// first (tests, report tooling and the trace exporter).
func (r *Recorder) Requests() []ReqRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.requests)
}
