package sysprobe

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Hist is the part of a ptmserve histogram summary the benchmark
// reads: the exact count and sum, never the log2 bucket tops.
type Hist struct {
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
}

// Snapshot is the part of ptmserve's /snapshot document the benchmark
// reads.
type Snapshot struct {
	Counters     map[string]int64 `json:"counters"`
	AckBarrier   Hist             `json:"ack_barrier_ns"`
	JournalFlush Hist             `json:"journal_flush_ns"`
}

// ParseSnapshot decodes a /snapshot body.
func ParseSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("sysprobe: /snapshot: %w", err)
	}
	if s.Counters == nil {
		return nil, fmt.Errorf("sysprobe: /snapshot has no counters")
	}
	return &s, nil
}

// FetchSnapshot reads /snapshot from a telemetry listener at addr.
func FetchSnapshot(addr string) (*Snapshot, error) {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/snapshot")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("sysprobe: /snapshot: %s", resp.Status)
	}
	return ParseSnapshot(buf.Bytes())
}

// CellRow is one cell's row of a `ptmbench -csv` file: the simulated
// rate per virtual second (throughput_ops for the thread panels,
// requests_per_s for Figure 8) and, where the figure has it, the
// commit count.
type CellRow struct {
	Rate    float64
	Commits int64
}

// ParseSweepCSV reads a header and its cell rows.
func ParseSweepCSV(data []byte) ([]CellRow, error) {
	r := csv.NewReader(bytes.NewReader(data))
	r.FieldsPerRecord = -1 // validated against the header below
	rows, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("sysprobe: sweep CSV: %w", err)
	}
	if len(rows) < 2 {
		return nil, fmt.Errorf("sysprobe: sweep CSV has %d rows, want a header and at least one cell", len(rows))
	}
	rate, commits := -1, -1
	for i, name := range rows[0] {
		switch name {
		case "throughput_ops", "requests_per_s":
			rate = i
		case "commits":
			commits = i
		}
	}
	if rate < 0 {
		return nil, fmt.Errorf("sysprobe: sweep CSV header %q has no rate column", rows[0])
	}
	var cells []CellRow
	for _, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			return nil, fmt.Errorf("sysprobe: sweep CSV row has %d fields, header has %d", len(row), len(rows[0]))
		}
		var c CellRow
		if c.Rate, err = strconv.ParseFloat(row[rate], 64); err != nil || c.Rate <= 0 {
			return nil, fmt.Errorf("sysprobe: sweep CSV rate %q is not a positive number", row[rate])
		}
		if commits >= 0 {
			if c.Commits, err = strconv.ParseInt(row[commits], 10, 64); err != nil {
				return nil, fmt.Errorf("sysprobe: sweep CSV commits: %w", err)
			}
		}
		cells = append(cells, c)
	}
	return cells, nil
}

// SumMetricsReport adds up, over every cell of a `ptmbench
// -metricsjson` report, the integer counters the benchmark reads.
// wpq_max_occupancy is a high-water mark, so it takes the maximum.
func SumMetricsReport(data []byte) (map[string]int64, error) {
	var rep struct {
		Cells []struct {
			Counters map[string]json.RawMessage `json:"counters"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("sysprobe: metrics report: %w", err)
	}
	if len(rep.Cells) == 0 {
		return nil, fmt.Errorf("sysprobe: metrics report has no cells")
	}
	sum := map[string]int64{}
	for _, cell := range rep.Cells {
		for name, raw := range cell.Counters {
			var v int64
			if json.Unmarshal(raw, &v) != nil {
				continue // ratios and the samples array
			}
			if name == "wpq_max_occupancy" {
				sum[name] = max(sum[name], v)
			} else {
				sum[name] += v
			}
		}
	}
	return sum, nil
}
