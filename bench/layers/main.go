// Command layers is the traced run's in-process half: it times calls
// into the public functions of each layer of the program — and is the
// only part of the benchmark that imports goptm/internal. The driver
// builds it for a traced run, runs it as a child, and reads one JSON
// document from its standard output: named per-layer metrics, their
// sample counts, and the spans recorded around every call into a
// layer (name, start, end, parent). A layer's self time is its span
// minus the spans inside it.
//
// Everything here is workload-independent: fixed inputs, fixed
// iteration counts, one thread unless the probe is about threads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// span is one timed call (or fixed run of calls) into a layer.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the process's first span
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index into the span list; -1 for a root
}

// tracer keeps spans in memory; the document is written once, at the
// end.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span indices
	off   bool  // record nothing (the overhead measurement's baseline)
}

func (t *tracer) begin(name string) {
	if t.off {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, StartNS: time.Since(t.t0).Nanoseconds()})
}

func (t *tracer) end() {
	if t.off {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndNS = time.Since(t.t0).Nanoseconds()
}

// totals sums span durations by name.
func (t *tracer) totals() map[string]int64 {
	dur := map[string]int64{}
	for _, s := range t.spans {
		dur[s.Name] += s.EndNS - s.StartNS
	}
	return dur
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the document the driver reads.
type report struct {
	Metrics map[string]metric `json:"metrics"`
	Samples map[string]int    `json:"samples"`
	Spans   []span            `json:"spans"`
}

func (r *report) set(name string, value float64, unit string, samples int) {
	r.Metrics[name] = metric{value, unit}
	r.Samples[name] = samples
}

func main() {
	dir := flag.String("dir", "", "scratch directory for the durable store's image and journal")
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "layers: -dir is required")
		os.Exit(2)
	}
	rep := &report{Metrics: map[string]metric{}, Samples: map[string]int{}}
	tr := &tracer{t0: time.Now()}
	for _, step := range []func(*report, *tracer, string) error{replay, serving, probes} {
		if err := step(rep, tr, *dir); err != nil {
			fmt.Fprintf(os.Stderr, "layers: %v\n", err)
			os.Exit(1)
		}
	}
	rep.Spans = tr.spans
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "layers: %v\n", err)
		os.Exit(1)
	}
}
