package metrics

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// testReport builds a small well-formed two-cell report.
func testReport() *Report {
	mk := func(cell string, threads int, commits int64) CellMetrics {
		c := CellMetrics{
			Figure:   "fig4a",
			Workload: "tatp",
			Cell:     cell,
			Threads:  threads,
		}
		c.Counters.Commits = commits
		c.Counters.Aborts = commits / 10
		c.Counters.NVMStores = commits * 20
		c.Counters.NVMLoads = commits * 50
		c.Counters.MediaWriteXPLines = commits * 8
		c.Counters.MediaReadXPLines = commits * 4
		c.Counters.XPBufWriteHits = commits * 12
		c.Counters.WPQAccepts = commits * 15
		c.Counters.WPQStallNS = commits * 40
		c.Counters.WPQMaxOccupancy = 48
		c.Counters.LogBytes = commits * 160
		c.Counters.WriteAmp = float64(c.Counters.MediaWriteXPLines*XPLineBytes) /
			float64(c.Counters.NVMStores*WordBytes)
		c.Counters.ReadAmp = float64(c.Counters.MediaReadXPLines*XPLineBytes) /
			float64(c.Counters.NVMLoads*WordBytes)
		c.Attribution = Attribution{WPQStallShare: 0.4, FenceWaitShare: 0.1, MediaWaitShare: 0.2}
		DeriveCell(&c)
		return c
	}
	return &Report{
		Schema: ReportSchema,
		Cells: []CellMetrics{
			mk("Optane_ADR_R", 8, 10_000),
			mk("Optane_eADR_U", 8, 25_000),
		},
	}
}

func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	rep := testReport()
	if err := WriteReportFile(path, rep); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != 2 || got.Schema != ReportSchema {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Cells[0].Key() != "fig4a/tatp/Optane_ADR_R/t8" {
		t.Fatalf("cell key = %q", got.Cells[0].Key())
	}
}

// TestValidateReportJSON walks the validator through the corruption
// cases the CI job guards against.
func TestValidateReportJSON(t *testing.T) {
	good, err := json.Marshal(testReport())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReportJSON(good); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}

	corrupt := func(from, to string) []byte {
		s := strings.Replace(string(good), from, to, 1)
		if s == string(good) {
			t.Fatalf("corruption %q not applied", from)
		}
		return []byte(s)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"not json", []byte("]{")},
		{"wrong schema", corrupt(`"schema":1`, `"schema":99`)},
		{"missing schema", corrupt(`"schema":1,`, ``)},
		{"cells not array", []byte(`{"schema":1,"cells":{}}`)},
		{"missing figure", corrupt(`"figure":"fig4a"`, `"figure":""`)},
		{"bad threads", corrupt(`"threads":8`, `"threads":0`)},
		{"missing counter", corrupt(`"wpq_max_occupancy":48`, `"wpq_max_occupancy":"x"`)},
		{"negative share", corrupt(`"fence_wait_share":0.1`, `"fence_wait_share":-0.1`)},
		{"insane share", corrupt(`"fence_wait_share":0.1`, `"fence_wait_share":500`)},
	}
	for _, tc := range cases {
		if err := ValidateReportJSON(tc.data); err == nil {
			t.Errorf("%s: corruption accepted", tc.name)
		}
	}
}

// TestDiff checks threshold behavior: identical reports pass at
// threshold 0; an injected regression fails; a loose threshold lets a
// small drift through.
func TestDiff(t *testing.T) {
	base := testReport()
	same := testReport()
	for _, e := range Diff(base, same, 0) {
		if e.Exceeds {
			t.Fatalf("identical reports differ: %+v", e)
		}
	}

	// Inject a 50%% commit regression into cell 0.
	reg := testReport()
	reg.Cells[0].Counters.Commits /= 2
	var hit bool
	for _, e := range Diff(base, reg, 0.05) {
		if e.Cell == base.Cells[0].Key() && e.Metric == "commits" {
			if !e.Exceeds {
				t.Fatalf("50%% regression under 5%% threshold not flagged: %+v", e)
			}
			hit = true
		}
		if e.Cell == base.Cells[1].Key() && e.Exceeds {
			t.Fatalf("untouched cell flagged: %+v", e)
		}
	}
	if !hit {
		t.Fatal("commits entry missing from diff")
	}

	// The same delta passes under a 60% threshold.
	for _, e := range Diff(base, reg, 0.60) {
		if e.Exceeds {
			t.Fatalf("delta beyond loose threshold: %+v", e)
		}
	}
}

// TestDiffMissingCells checks that a cell present in only one report is
// itself a failure — a silently dropped sweep point must not pass CI.
func TestDiffMissingCells(t *testing.T) {
	base, cur := testReport(), testReport()
	cur.Cells = cur.Cells[:1]
	var missing int
	for _, e := range Diff(base, cur, 0) {
		if e.Exceeds {
			if !strings.Contains(e.Metric, "missing") {
				t.Fatalf("unexpected exceeding entry: %+v", e)
			}
			missing++
		}
	}
	if missing != 1 {
		t.Fatalf("missing-cell entries = %d, want 1", missing)
	}

	extra := testReport()
	extra.Cells = append(extra.Cells, extra.Cells[0])
	extra.Cells[2].Cell = "DRAM_eADR_U"
	var added int
	for _, e := range Diff(base, extra, 0) {
		if e.Exceeds && strings.Contains(e.Metric, "missing from baseline") {
			added++
		}
	}
	if added != 1 {
		t.Fatalf("new-cell entries = %d, want 1", added)
	}
}

func TestAttributionDominant(t *testing.T) {
	cases := []struct {
		a    Attribution
		want string
	}{
		{Attribution{FenceWaitShare: 0.5, WPQStallShare: 0.1}, "fence-wait"},
		{Attribution{FenceWaitShare: 0.1, WPQStallShare: 0.5}, "wpq-stall"},
		{Attribution{MediaWaitShare: 0.6, WPQStallShare: 0.5}, "media-wait"},
		{Attribution{ValidateShare: 0.3, CommitShare: 0.2}, "compute"},
	}
	for _, tc := range cases {
		if got, _ := tc.a.Dominant(); got != tc.want {
			t.Errorf("Dominant(%+v) = %q, want %q", tc.a, got, tc.want)
		}
	}
}

func TestDeriveCellEdgeCases(t *testing.T) {
	var c CellMetrics
	DeriveCell(&c) // all-zero counters must not divide by zero
	if c.Derived.XPBufWriteHitPct != 0 || c.Derived.CommitsPerAbort != 0 {
		t.Fatalf("zero cell derived nonzero: %+v", c.Derived)
	}
	c.Counters.Commits = 100 // no aborts: commits/abort degenerates to commits
	DeriveCell(&c)
	if c.Derived.CommitsPerAbort != 100 {
		t.Fatalf("commits-per-abort with zero aborts = %v, want 100", c.Derived.CommitsPerAbort)
	}
}
