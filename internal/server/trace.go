package server

import (
	"sync/atomic"
	"time"

	"goptm/internal/obs"
	"goptm/internal/simtime"
)

// reqTracer makes the request-lifecycle sampling decision and owns
// the clock the lifecycle stamps run on: virtual nanoseconds under
// loadsim/lockstep, host nanoseconds since the tracer's epoch for the
// real TCP server (so wall-time traces still start near zero and load
// into ui.perfetto.dev without µs-precision loss).
//
// A nil tracer is the disabled configuration: the Submit and pop sites
// cost one nil check on the Request's Trace pointer and a completion
// record one on the tracer, so the op path stays allocation-free and
// the virtual timeline — and with it every golden-pinned loadsim hash
// — is untouched.
type reqTracer struct {
	rec   *obs.Recorder
	every uint64
	seed  uint64
	wall  bool
	epoch int64 // wall mode: UnixNano of tracer creation
	n     atomic.Uint64
}

// newReqTracer returns nil unless rec retains trace events and sample
// is positive (sample = N keeps ~1 in N requests).
func newReqTracer(rec *obs.Recorder, sample int, seed uint64, wall bool) *reqTracer {
	if !rec.Tracing() || sample <= 0 {
		return nil
	}
	t := &reqTracer{rec: rec, every: uint64(sample), seed: seed, wall: wall}
	if wall {
		t.epoch = time.Now().UnixNano()
	}
	return t
}

// now is the tracer's clock: vt as given (always, for a nil tracer),
// or host ns since the epoch.
func (t *reqTracer) now(vt int64) int64 {
	if t != nil && t.wall {
		return time.Now().UnixNano() - t.epoch
	}
	return vt
}

// start decides whether the next arriving request is sampled. The
// decision hashes the arrival index with the seed (one SplitMix64 step
// turns the pair into an unbiased keep/drop coin), so a fixed (seed,
// sample) picks the same arrivals on every run of a deterministic
// workload — and the parse boundary TS[0] is stamped at vt (or wall
// now). Nil-safe: a nil tracer samples nothing.
func (t *reqTracer) start(vt int64) *obs.ReqRecord {
	if t == nil {
		return nil
	}
	id := t.n.Add(1) - 1
	if t.every > 1 && simtime.SplitMix64(t.seed^id)%t.every != 0 {
		return nil
	}
	rec := &obs.ReqRecord{ID: id}
	rec.TS[0] = t.now(vt)
	return rec
}

// observe closes the chain of every sampled member of a completion
// record — TS[3..6] from the record's boundaries, TS[7] at the
// acknowledgment — and hands it to the recorder.
func (t *reqTracer) observe(d *completion) {
	if t == nil {
		return
	}
	stamps := [...]int64{d.closed, d.ran, d.drained, d.flushed, t.now(d.end)}
	for _, req := range d.members {
		q := req.Trace
		if q == nil {
			continue
		}
		for k, ts := range stamps {
			q.Stamp(3+k, ts)
		}
		q.Shed = req.Shed
		t.rec.Request(*q)
	}
}
