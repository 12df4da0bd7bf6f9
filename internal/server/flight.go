package server

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"goptm/internal/obs"
)

// The flight recorder is the serving layer's one per-request record.
// It answers the question the soak harness's SIGKILL leaves open: what
// was the server doing in the seconds before it died? A killed process
// can't be asked, so the recorder keeps a fixed-size ring of recent
// completed-request records plus a short series of counter samples,
// and a mirror goroutine periodically rewrites a JSON sidecar next to
// the image (tmp+rename, so the sidecar is never torn). After the
// kill, ptmsoak harvests the sidecar and attaches the tail to its
// verdict — an oracle violation then carries the last pre-kill window
// of telemetry instead of just a key name. The same retained records
// are what -trace renders as Perfetto request lanes (Export).
//
// The ring is the dumbest correct one: a mutex. It is fed per batch —
// the executor's completion record costs one lock acquisition and one
// time.Now() however many members it carries — and readers hold the
// lock only to copy slots out; marshalling and file I/O happen outside
// it. Nothing allocates on the write path, and a nil *FlightRecorder
// disables everything at the cost of one nil check.

// FlightRecord is one completed request as the ring retains it.
type FlightRecord struct {
	Seq    uint64 `json:"seq"`     // global completion sequence number
	WallNS int64  `json:"wall_ns"` // host completion time, unix nanoseconds
	Op     uint8  `json:"op"`      // server.Op
	Shard  uint16 `json:"shard"`
	Shed   bool   `json:"shed,omitempty"` // deadline-shed, never executed
	Err    bool   `json:"err,omitempty"`  // completed with a kv or durability error
	// TS is the request's lifecycle chain (obs.ReqRecord.TS) on the
	// executor's lifecycle clock — virtual ns, or host ns since executor
	// start under WallClock: enqueue (twice: parse is zero-width), pop,
	// batch close, transaction return, WPQ drain, journal flush, ack.
	// Boundaries never run backwards, so TS[7]-TS[0] is the end-to-end
	// latency and the seven phase widths sum to it.
	TS [obs.NumReqPhases + 1]int64 `json:"ts"`
}

// Chain returns the record as the request-lifecycle chain the obs
// trace exporter renders, identified by its sequence number.
func (r FlightRecord) Chain() obs.ReqRecord {
	return obs.ReqRecord{ID: r.Seq, Shard: int32(r.Shard), Op: r.Op, Shed: r.Shed, TS: r.TS}
}

// FlightSample is one periodic counter observation the mirror loop
// appends: absolute counter values, so consecutive samples diff into
// the per-window deltas.
type FlightSample struct {
	WallNS     int64            `json:"wall_ns"`
	QueueDepth int64            `json:"queue_depth"`
	Counters   map[string]int64 `json:"counters"`
}

// FlightDump is the sidecar file's schema.
type FlightDump struct {
	Schema  int            `json:"schema"`
	WallNS  int64          `json:"wall_ns"` // when this dump was written
	Seq     uint64         `json:"seq"`     // records ever written
	Dropped uint64         `json:"dropped"` // overwritten by ring wrap
	Records []FlightRecord `json:"records"` // oldest→newest
	Samples []FlightSample `json:"samples"` // oldest→newest
}

// flightSchema versions the sidecar format (2: records carry ts).
const flightSchema = 2

// FlightSlots is the ring size ptmserve and traced loadsim runs use.
const FlightSlots = 4096

// maxFlightSamples bounds the counter-sample series the dump carries.
const maxFlightSamples = 64

// FlightPath names the sidecar mirrored next to the image at path.
func FlightPath(imagePath string) string { return imagePath + ".flight" }

// FlightRecorder is the ring plus its mirror goroutine. A nil
// receiver is the disabled configuration.
type FlightRecorder struct {
	ringMu sync.Mutex // guards slots and seq; never held across I/O
	slots  []FlightRecord
	seq    uint64 // records ever written; record n lives in slots[n&mask]
	mask   uint64

	mu      sync.Mutex // serializes dumps and guards samples
	path    string
	samples []FlightSample

	stop chan struct{}
	done chan struct{}
}

// NewFlightRecorder builds a ring of at least size slots (rounded up
// to a power of two; size <= 0 returns nil, the disabled recorder).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		return nil
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &FlightRecorder{slots: make([]FlightRecord, n), mask: uint64(n - 1)}
}

// observe publishes every member of a completion record — executed,
// shed, or swept at drain — under one lock acquisition and one wall
// stamp. Safe from concurrent shard workers, allocation-free.
func (f *FlightRecorder) observe(d *completion) {
	if f == nil {
		return
	}
	wall := time.Now().UnixNano()
	f.ringMu.Lock()
	for _, req := range d.members {
		rec := FlightRecord{
			WallNS: wall,
			Op:     uint8(req.Op),
			Shard:  uint16(d.shard),
			Shed:   req.Shed,
			Err:    req.Err != nil,
			TS:     [...]int64{req.enq, req.enq, req.pop, d.closed, d.ran, d.drained, d.flushed, d.acked},
		}
		// Under lockstep a shard clock may trail the submitter's, so a
		// pop can precede its enqueue stamp: clamp every boundary to its
		// predecessor, charging such a phase zero width rather than
		// breaking the telescoping chain.
		for i := 1; i < len(rec.TS); i++ {
			rec.TS[i] = max(rec.TS[i], rec.TS[i-1])
		}
		f.seq++
		rec.Seq = f.seq
		f.slots[f.seq&f.mask] = rec
	}
	f.ringMu.Unlock()
}

// Export hands every retained record's chain to rec, oldest first —
// the -trace path, after the executor has drained. Nil-safe.
func (f *FlightRecorder) Export(rec *obs.Recorder) {
	for _, r := range f.Snapshot() {
		rec.Request(r.Chain())
	}
}

// Seq reports how many records have ever been written.
func (f *FlightRecorder) Seq() uint64 {
	if f == nil {
		return 0
	}
	f.ringMu.Lock()
	defer f.ringMu.Unlock()
	return f.seq
}

// Snapshot copies the retained records out, oldest first.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	if f == nil {
		return nil
	}
	f.ringMu.Lock()
	defer f.ringMu.Unlock()
	n := min(f.seq, uint64(len(f.slots)))
	out := make([]FlightRecord, 0, n)
	for seq := f.seq - n + 1; seq <= f.seq; seq++ {
		out = append(out, f.slots[seq&f.mask])
	}
	return out
}

// AddSample appends one counter observation, keeping the last
// maxFlightSamples.
func (f *FlightRecorder) AddSample(s FlightSample) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.samples = append(f.samples, s)
	if len(f.samples) > maxFlightSamples {
		f.samples = f.samples[len(f.samples)-maxFlightSamples:]
	}
	f.mu.Unlock()
}

// Dump writes the sidecar file atomically (tmp + rename). Safe to
// call at any time — on the mirror tick, on SIGTERM, from a panic
// handler; nil-safe and a no-op before StartMirror names the path.
func (f *FlightRecorder) Dump() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.path == "" {
		return nil
	}
	// The ring lock is held only inside Snapshot; marshalling and the
	// tmp+rename below must stay outside it, or a mirror tick would
	// stall every shard's completion path.
	records := f.Snapshot()
	var seq uint64
	if len(records) > 0 {
		seq = records[len(records)-1].Seq
	}
	d := FlightDump{
		Schema:  flightSchema,
		WallNS:  time.Now().UnixNano(),
		Seq:     seq,
		Dropped: seq - uint64(len(records)),
		Records: records,
		Samples: f.samples,
	}
	blob, err := json.Marshal(d)
	if err != nil {
		return err
	}
	tmp := f.path + ".tmp"
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, f.path)
}

// StartMirror begins periodically mirroring the ring to the sidecar
// at path. Each tick takes a Snapshot from sample (if non-nil;
// Executor.Snapshot in the server) for a counter observation, then
// rewrites the sidecar. Stop ends the loop with a final dump.
func (f *FlightRecorder) StartMirror(path string, interval time.Duration, sample func() Snapshot) {
	if f == nil {
		return
	}
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	f.mu.Lock()
	f.path = path
	f.mu.Unlock()
	f.stop = make(chan struct{})
	f.done = make(chan struct{})
	go func() {
		defer close(f.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-t.C:
				if sample != nil {
					f.AddSample(sample().flightSample())
				}
				f.Dump()
			}
		}
	}()
}

// Stop ends the mirror goroutine and writes the final dump — the
// SIGTERM path runs this before the telemetry listener closes, so the
// sidecar always reflects the drained state.
func (f *FlightRecorder) Stop() {
	if f == nil {
		return
	}
	if f.stop != nil {
		close(f.stop)
		<-f.done
		f.stop, f.done = nil, nil
	}
	f.Dump()
}

// ReadFlightDump parses a sidecar file (the soak harvester and tests).
func ReadFlightDump(path string) (*FlightDump, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	return &d, nil
}
