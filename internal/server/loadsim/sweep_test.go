package loadsim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"goptm/internal/core"
	"goptm/internal/durability"
	"goptm/internal/server"
)

func adaptiveCfg() Config {
	c := smallCfg()
	c.Adaptive = true
	c.MaxBatch = 8
	c.BatchWindowNS = 2000
	c.Warmup = 500
	c.Ctrl = server.CtrlConfig{MaxBatch: 32}
	return c
}

// TestAdaptiveRunDeterministic: the controller's whole decision
// history must be a pure function of simulated history — two
// identical adaptive runs agree on every step, pinned by the trace
// fingerprint and the report bytes.
func TestAdaptiveRunDeterministic(t *testing.T) {
	a, err := Run(adaptiveCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(adaptiveCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.CtrlSteps == 0 {
		t.Fatal("adaptive run recorded no controller steps")
	}
	if a.CtrlTraceFNV != b.CtrlTraceFNV {
		t.Fatalf("controller traces diverged: %016x vs %016x", a.CtrlTraceFNV, b.CtrlTraceFNV)
	}
	if Report([]Result{a}) != Report([]Result{b}) {
		t.Fatal("adaptive reports diverged across identical runs")
	}
}

// TestAdaptiveGoldenTrace pins the controller trace fingerprint of a
// fixed adaptive config. A mismatch means the controller consumed
// something outside simulated history (or the rule changed on
// purpose — then update the constant).
func TestAdaptiveGoldenTrace(t *testing.T) {
	res, err := Run(adaptiveCfg())
	if err != nil {
		t.Fatal(err)
	}
	const wantFNV = uint64(0x190ebd36fc9f4164)
	if res.CtrlTraceFNV != wantFNV {
		t.Fatalf("golden controller trace changed: got %016x want %016x (steps %d)",
			res.CtrlTraceFNV, wantFNV, res.CtrlSteps)
	}
}

// TestSweepDeterministicAcrossJobs: cells come back in job order, so
// the report and JSON artifact are identical at any concurrency level
// (0 selects 1), and a failing sweep names its lowest-index failing
// cell however the workers interleave.
func TestSweepDeterministicAcrossJobs(t *testing.T) {
	scfg := SweepConfig{
		Base:    adaptiveCfg(),
		Rates:   []float64{1e6, 6e6},
		Statics: []StaticPoint{{MaxBatch: 1, WindowNS: 2000}, {MaxBatch: 32, WindowNS: 16384}},
		Start:   StaticPoint{MaxBatch: 8, WindowNS: 2000},
	}
	var report string
	var artifact []byte
	for _, jobs := range []int{0, 1, 4} {
		scfg.Jobs = jobs
		sw, err := RunSweep(scfg)
		if err != nil {
			t.Fatal(err)
		}
		if report == "" {
			report, artifact = SweepReport(sw), BenchJSON(sw)
			continue
		}
		if got := SweepReport(sw); got != report {
			t.Fatalf("sweep report diverged at -jobs %d:\n%s\nvs\n%s", jobs, got, report)
		}
		if !bytes.Equal(BenchJSON(sw), artifact) {
			t.Fatalf("sweep JSON artifact diverged at -jobs %d", jobs)
		}
	}

	// HTM cannot run under ADR, so every cell of this sweep fails at
	// once; the error must be the first cell's at every width.
	scfg.Base.Algo, scfg.Base.Domain = core.AlgoHTM, durability.ADR
	for _, jobs := range []int{1, 4} {
		scfg.Jobs = jobs
		for try := 0; try < 8; try++ {
			_, err := RunSweep(scfg)
			if err == nil || !strings.Contains(err.Error(), "rate 1000000 adaptive:") {
				t.Fatalf("-jobs %d: error = %v, want the rate-1000000 adaptive cell's", jobs, err)
			}
		}
	}
}

// TestBenchJSONWellFormed: the hand-rendered artifact must stay valid
// JSON with the fields CI asserts.
func TestBenchJSONWellFormed(t *testing.T) {
	sw, err := RunSweep(SweepConfig{
		Base:    adaptiveCfg(),
		Rates:   []float64{4e6},
		Statics: []StaticPoint{{MaxBatch: 1, WindowNS: 2000}},
		Start:   StaticPoint{MaxBatch: 8, WindowNS: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema  int    `json:"schema"`
		Bench   string `json:"bench"`
		Rows    []json.RawMessage
		MaxPct  *int64           `json:"max_adaptive_vs_best_pct"`
		Verdict *bool            `json:"verdict_pass"`
		Worst   map[string]int64 `json:"static_worst_vs_adaptive_pct"`
	}
	if err := json.Unmarshal(BenchJSON(sw), &doc); err != nil {
		t.Fatalf("artifact is not valid JSON: %v\n%s", err, BenchJSON(sw))
	}
	if doc.Schema != 1 || doc.Bench != "serving_rate_sweep" {
		t.Fatalf("schema header wrong: %+v", doc)
	}
	if doc.MaxPct == nil || doc.Verdict == nil || len(doc.Worst) != 1 {
		t.Fatalf("verdict fields missing: %s", BenchJSON(sw))
	}
}

// TestParseHelpers covers the flag parsers.
func TestParseHelpers(t *testing.T) {
	pts, err := ParseStatics("1:2000, 8:0,32:16384")
	if err != nil || len(pts) != 3 || pts[2] != (StaticPoint{MaxBatch: 32, WindowNS: 16384}) {
		t.Fatalf("ParseStatics: %v %v", pts, err)
	}
	if _, err := ParseStatics("nope"); err == nil {
		t.Fatal("ParseStatics accepted garbage")
	}
	rates, err := ParseRates("4e6, 250000")
	if err != nil || len(rates) != 2 || rates[0] != 250000 {
		t.Fatalf("ParseRates: %v %v", rates, err)
	}
	if _, err := ParseRates("-3"); err == nil {
		t.Fatal("ParseRates accepted a negative rate")
	}
}
