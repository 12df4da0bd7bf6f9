package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"goptm/internal/obs"
)

// ReportSchema stamps the metrics-report JSON artifact; bump on any
// incompatible shape change so ptmstat refuses to diff mismatched
// artifacts.
const ReportSchema = 1

// Report is the diffable metrics artifact of one sweep: one CellMetrics
// per (figure, workload, cell, threads) point, in sweep order.
type Report struct {
	Schema int           `json:"schema"`
	Cells  []CellMetrics `json:"cells"`
}

// CellMetrics is the counter state and latency attribution of one
// sweep cell.
type CellMetrics struct {
	Figure   string `json:"figure"`
	Workload string `json:"workload"`
	Cell     string `json:"cell"`
	Threads  int    `json:"threads"`

	Counters    Snapshot    `json:"counters"`
	Derived     Derived     `json:"derived"`
	Attribution Attribution `json:"attribution"`
}

// Key identifies the cell for diffing.
func (c *CellMetrics) Key() string {
	return fmt.Sprintf("%s/%s/%s/t%d", c.Figure, c.Workload, c.Cell, c.Threads)
}

// Derived are the headline ratios ptmstat guards: they collapse the
// raw counters into the quantities the paper's explanation rests on.
type Derived struct {
	WriteAmp         float64 `json:"write_amp"`
	ReadAmp          float64 `json:"read_amp"`
	WPQStallShare    float64 `json:"wpq_stall_share"`  // of txn time
	MediaWaitShare   float64 `json:"media_wait_share"` // of txn time
	XPBufWriteHitPct float64 `json:"xpbuf_write_hit_pct"`
	CommitsPerAbort  float64 `json:"commits_per_abort"`
}

// Attribution is the share of whole-transaction virtual time spent in
// each phase. Bus phases (media wait, WPQ stall, fence wait) overlap
// the protocol phases, so shares do not sum to 1 — and because every
// flush's stall window is accounted, a saturated WPQ can push the
// stall share above 1 (several outstanding flushes stalling inside one
// transaction window).
type Attribution struct {
	ValidateShare  float64 `json:"validate_share"`
	DrainShare     float64 `json:"drain_share"`
	CommitShare    float64 `json:"commit_share"`
	AbortShare     float64 `json:"abort_share"`
	FenceWaitShare float64 `json:"fence_wait_share"`
	WPQStallShare  float64 `json:"wpq_stall_share"`
	MediaWaitShare float64 `json:"media_wait_share"`
}

// AttributionFromBreakdown rolls an obs phase breakdown into shares of
// transaction time.
func AttributionFromBreakdown(b *obs.Breakdown) Attribution {
	return Attribution{
		ValidateShare:  b.Share(obs.PhaseValidate),
		DrainShare:     b.Share(obs.PhaseDrain),
		CommitShare:    b.Share(obs.PhaseCommit),
		AbortShare:     b.Share(obs.PhaseAbort),
		FenceWaitShare: b.Share(obs.PhaseFenceWait),
		WPQStallShare:  b.Share(obs.PhaseWPQStall),
		MediaWaitShare: b.Share(obs.PhaseMediaWait),
	}
}

// Dominant reports the largest bus-side share (fence wait, WPQ stall,
// media wait) — "what is commit latency waiting on" in one word. With
// every share zero (eADR: no fence ever waits) it answers "compute":
// the time went to the transaction itself, not to the bus.
func (a Attribution) Dominant() (name string, share float64) {
	name = "compute"
	if a.FenceWaitShare > share {
		name, share = "fence-wait", a.FenceWaitShare
	}
	if a.WPQStallShare > share {
		name, share = "wpq-stall", a.WPQStallShare
	}
	if a.MediaWaitShare > share {
		name, share = "media-wait", a.MediaWaitShare
	}
	return name, share
}

// DeriveCell computes the Derived block from a cell's counters and
// attribution.
func DeriveCell(c *CellMetrics) {
	c.Derived.WriteAmp = c.Counters.WriteAmp
	c.Derived.ReadAmp = c.Counters.ReadAmp
	c.Derived.WPQStallShare = c.Attribution.WPQStallShare
	c.Derived.MediaWaitShare = c.Attribution.MediaWaitShare
	if probes := c.Counters.XPBufWriteHits + c.Counters.MediaWriteXPLines; probes > 0 {
		c.Derived.XPBufWriteHitPct = 100 * float64(c.Counters.XPBufWriteHits) / float64(probes)
	}
	if c.Counters.Aborts > 0 {
		c.Derived.CommitsPerAbort = float64(c.Counters.Commits) / float64(c.Counters.Aborts)
	} else {
		c.Derived.CommitsPerAbort = float64(c.Counters.Commits)
	}
}

// WriteReportFile writes the report as indented JSON (the -metricsjson
// artifact and the CI baseline format).
func WriteReportFile(path string, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("metrics: marshal report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReportFile reads and schema-validates a report artifact.
func LoadReportFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := ValidateReportJSON(data); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// requiredCounterFields are the Snapshot fields every valid artifact
// must carry (a subset chosen for schema stability; extra fields are
// permitted so the schema can grow).
var requiredCounterFields = []string{
	"commits", "aborts", "nvm_stores", "nvm_loads",
	"media_write_xplines", "media_read_xplines",
	"write_amp", "read_amp",
	"wpq_accepts", "wpq_stall_ns", "wpq_max_occupancy",
}

// ValidateReportJSON checks that data is a structurally valid metrics
// report: correct schema stamp, a cells array whose entries carry the
// identifying fields, the required counters as numbers, and
// attribution shares inside [0, 1].
func ValidateReportJSON(data []byte) error {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		return fmt.Errorf("metrics: report is not a JSON object: %w", err)
	}
	var schema int
	if raw, ok := top["schema"]; !ok {
		return fmt.Errorf("metrics: report missing \"schema\"")
	} else if err := json.Unmarshal(raw, &schema); err != nil || schema != ReportSchema {
		return fmt.Errorf("metrics: unsupported report schema (want %d)", ReportSchema)
	}
	raw, ok := top["cells"]
	if !ok {
		return fmt.Errorf("metrics: report missing \"cells\"")
	}
	var cells []map[string]json.RawMessage
	if err := json.Unmarshal(raw, &cells); err != nil {
		return fmt.Errorf("metrics: \"cells\" is not an array of objects: %w", err)
	}
	for i, cell := range cells {
		for _, f := range []string{"figure", "workload", "cell"} {
			var s string
			if raw, ok := cell[f]; !ok || json.Unmarshal(raw, &s) != nil || s == "" {
				return fmt.Errorf("metrics: cell %d: missing or invalid %q", i, f)
			}
		}
		var threads int
		if raw, ok := cell["threads"]; !ok || json.Unmarshal(raw, &threads) != nil || threads <= 0 {
			return fmt.Errorf("metrics: cell %d: missing or invalid \"threads\"", i)
		}
		var counters map[string]json.RawMessage
		if raw, ok := cell["counters"]; !ok || json.Unmarshal(raw, &counters) != nil {
			return fmt.Errorf("metrics: cell %d: missing or invalid \"counters\"", i)
		}
		for _, f := range requiredCounterFields {
			var v float64
			if raw, ok := counters[f]; !ok || json.Unmarshal(raw, &v) != nil {
				return fmt.Errorf("metrics: cell %d: counters missing numeric %q", i, f)
			}
		}
		var attr map[string]float64
		if raw, ok := cell["attribution"]; !ok || json.Unmarshal(raw, &attr) != nil {
			return fmt.Errorf("metrics: cell %d: missing or invalid \"attribution\"", i)
		}
		// Shares must be non-negative and sane. Overlapping bus phases
		// legitimately exceed 1 under WPQ saturation (every flush's
		// stall is accounted), so the upper bound is only a corruption
		// guard, not 1.
		for name, v := range attr {
			if v < 0 || v > 100 {
				return fmt.Errorf("metrics: cell %d: attribution share %q = %v outside [0,100]", i, name, v)
			}
		}
	}
	return nil
}

// DiffEntry is one metric delta between two reports' matching cells.
type DiffEntry struct {
	Cell   string
	Metric string
	Base   float64
	Cur    float64
	// Rel is the relative delta |cur-base| / max(|base|, 1).
	Rel float64
	// Exceeds marks the entry as beyond the diff threshold.
	Exceeds bool
}

// diffMetrics extracts the guarded quantities of one cell by name.
func diffMetrics(c *CellMetrics) map[string]float64 {
	return map[string]float64{
		"commits":             float64(c.Counters.Commits),
		"aborts":              float64(c.Counters.Aborts),
		"media_write_xplines": float64(c.Counters.MediaWriteXPLines),
		"media_read_xplines":  float64(c.Counters.MediaReadXPLines),
		"wpq_stall_ns":        float64(c.Counters.WPQStallNS),
		"log_bytes":           float64(c.Counters.LogBytes),
		"write_amp":           c.Derived.WriteAmp,
		"read_amp":            c.Derived.ReadAmp,
		"wpq_stall_share":     c.Derived.WPQStallShare,
	}
}

// Diff compares cur against base cell-by-cell (matched on figure,
// workload, cell, threads) and returns every guarded metric's delta,
// marking those whose relative change exceeds threshold. Cells present
// in only one report are reported as a single exceeding entry each, so
// a silently dropped cell fails CI too.
func Diff(base, cur *Report, threshold float64) []DiffEntry {
	baseBy := make(map[string]*CellMetrics, len(base.Cells))
	for i := range base.Cells {
		baseBy[base.Cells[i].Key()] = &base.Cells[i]
	}
	var out []DiffEntry
	seen := make(map[string]bool, len(cur.Cells))
	for i := range cur.Cells {
		c := &cur.Cells[i]
		seen[c.Key()] = true
		b, ok := baseBy[c.Key()]
		if !ok {
			out = append(out, DiffEntry{Cell: c.Key(), Metric: "(cell missing from baseline)", Exceeds: true})
			continue
		}
		bm, cm := diffMetrics(b), diffMetrics(c)
		names := make([]string, 0, len(cm))
		for name := range cm {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			bv, cv := bm[name], cm[name]
			den := bv
			if den < 0 {
				den = -den
			}
			if den < 1 {
				den = 1
			}
			rel := (cv - bv) / den
			if rel < 0 {
				rel = -rel
			}
			out = append(out, DiffEntry{
				Cell: c.Key(), Metric: name, Base: bv, Cur: cv,
				Rel: rel, Exceeds: rel > threshold,
			})
		}
	}
	for key := range baseBy {
		if !seen[key] {
			out = append(out, DiffEntry{Cell: key, Metric: "(cell missing from current)", Exceeds: true})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cell != out[j].Cell {
			return out[i].Cell < out[j].Cell
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}
