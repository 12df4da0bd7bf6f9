package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
)

// This file renders a Recorder's retained events in the Chrome
// trace-event JSON format, which ui.perfetto.dev (and chrome://tracing)
// load directly:
//
//   - every simulated worker gets one named thread lane carrying its
//     phase spans ("X" complete events) and abort markers ("i" instant
//     events);
//   - every counter track becomes a "C" counter series on the process.
//
// Timestamps in the format are microseconds; virtual nanoseconds are
// emitted as fractional µs so nothing is rounded away. Events are not
// globally sorted — the trace-event spec permits any order and the
// Perfetto trace processor sorts on import.

// tracePID is the synthetic process id of the simulated machine.
const tracePID = 1

// reqPID is the synthetic process id of the served-request timeline:
// request-lifecycle span chains render as their own process with one
// lane per executor shard, so ui.perfetto.dev shows the machine's
// transaction phases and the service's request phases side by side.
const reqPID = 2

// WriteTrace writes the retained events as Chrome trace-event JSON.
// The output is a complete, valid JSON object regardless of how many
// events were recorded; recording with tracing disabled yields only
// the metadata events.
func (r *Recorder) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	e := traceEncoder{w: bw}
	e.raw(`{"traceEvents":[`)
	e.meta(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":"goptm simulated machine"}}`, tracePID)
	if r != nil {
		for _, tr := range r.threads {
			e.meta(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"worker %d"}}`,
				tracePID, tr.tid, tr.tid)
		}
		for _, tr := range r.threads {
			for _, s := range tr.spans {
				e.span(tr.tid, s)
			}
			for _, ev := range tr.instants {
				e.instant(tr.tid, ev)
			}
			for _, c := range tr.counts {
				e.counter(c)
			}
		}
		r.mu.Lock()
		shared := r.shared
		r.mu.Unlock()
		requests := r.Requests()
		for _, c := range shared {
			e.counter(c)
		}
		// The request-lifecycle process is emitted only when records
		// exist: a recorder with no request records produces exactly the
		// bytes it did before this process existed (the golden file pins
		// them).
		if len(requests) > 0 {
			e.meta(`{"name":"process_name","ph":"M","pid":%d,"args":{"name":"goptm served requests"}}`, reqPID)
			maxShard := int32(0)
			for _, q := range requests {
				if q.Shard > maxShard {
					maxShard = q.Shard
				}
			}
			for sh := int32(0); sh <= maxShard; sh++ {
				e.meta(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"shard %d"}}`,
					reqPID, sh, sh)
			}
			for _, q := range requests {
				e.request(q)
			}
		}
	}
	e.raw(`],"displayTimeUnit":"ns"}`)
	e.raw("\n")
	if e.err != nil {
		return e.err
	}
	return bw.Flush()
}

// WriteTraceFile creates (or truncates) path and writes the trace to
// it, reporting the first create, write or close error.
func (r *Recorder) WriteTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceEncoder streams trace-event objects, tracking the separator and
// the first write error.
type traceEncoder struct {
	w     *bufio.Writer
	wrote bool
	err   error
}

func (e *traceEncoder) raw(s string) {
	if e.err == nil {
		_, e.err = e.w.WriteString(s)
	}
}

func (e *traceEncoder) sep() {
	if e.wrote {
		e.raw(",")
	}
	e.wrote = true
}

func (e *traceEncoder) meta(format string, args ...any) {
	e.sep()
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

// usec renders virtual ns as the format's microsecond timestamps,
// keeping full ns precision as fractional digits.
func usec(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1000.0, 'f', -1, 64)
}

func (e *traceEncoder) span(tid int, s span) {
	e.sep()
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w,
			`{"name":%q,"cat":"tx","ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s}`,
			s.phase.String(), tracePID, tid, usec(s.start), usec(s.end-s.start))
	}
}

func (e *traceEncoder) instant(tid int, ev instant) {
	e.sep()
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w,
			`{"name":%q,"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%s}`,
			ev.name, tracePID, tid, usec(ev.ts))
	}
}

// request renders one request's full span chain on its shard's lane.
// Every phase is emitted — zero-width ones included — so the chain
// visibly covers parse→queue→batch→execute→drain→journal→ack and the
// rendered durations sum to the request's end-to-end latency.
func (e *traceEncoder) request(q ReqRecord) {
	for p := ReqPhase(0); p < NumReqPhases; p++ {
		start, end := q.TS[p], q.TS[p+1]
		if end < start {
			continue // a malformed stamp must not poison the whole trace
		}
		e.sep()
		if e.err == nil {
			_, e.err = fmt.Fprintf(e.w,
				`{"name":%q,"cat":"req","ph":"X","pid":%d,"tid":%d,"ts":%s,"dur":%s,"args":{"req":%d,"op":%d,"shed":%v}}`,
				p.String(), reqPID, q.Shard, usec(start), usec(end-start), q.ID, q.Op, q.Shed)
		}
	}
}

func (e *traceEncoder) counter(c counterSample) {
	e.sep()
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w,
			`{"name":%q,"ph":"C","pid":%d,"ts":%s,"args":{"value":%s}}`,
			c.track.String(), tracePID, usec(c.ts),
			strconv.FormatFloat(c.value, 'f', -1, 64))
	}
}
