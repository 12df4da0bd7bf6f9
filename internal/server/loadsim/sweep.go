package loadsim

import (
	"fmt"
	"sort"
	"strings"

	"goptm/internal/runner"
)

// The offered-rate sweep is the experiment that justifies the adaptive
// controller: run the same workload at a ladder of arrival rates, once
// with the controller on and once per static (batch, window) operating
// point, and tabulate the latency knee. A static point is only right
// at one spot on the ladder — a big window wastes latency at low rate,
// a small batch drowns in commit tails at high rate — while the
// controller is supposed to track the knee across the whole ladder.
// The sweep emits that claim as a deterministic table and a JSON
// artifact (BENCH_9.json) whose verdict fields CI asserts.

// StaticPoint is one fixed (batch cap, group-commit window) operating
// point swept alongside the controller.
type StaticPoint struct {
	MaxBatch int
	WindowNS int64
}

func (p StaticPoint) String() string {
	return fmt.Sprintf("static-b%d-w%d", p.MaxBatch, p.WindowNS)
}

// SweepConfig parameterizes one rate sweep. Base supplies the
// workload (keys, mix, seed, deadline, warmup); Rate and the batching
// knobs are overridden per cell.
type SweepConfig struct {
	Base    Config
	Rates   []float64     // offered arrival rates, one sweep row each
	Statics []StaticPoint // fixed operating points to race against

	// Adaptive cells start at Start and let the controller move inside
	// Base.Ctrl's bounds.
	Start StaticPoint

	// Jobs bounds concurrent cells; each cell is an independent
	// lockstep machine, so parallel execution cannot perturb results.
	// 0 selects 1.
	Jobs int
}

// CellResult is one sweep cell: a (rate, operating point) pair's run.
type CellResult struct {
	Label string // "adaptive" or StaticPoint.String()
	Res   Result
}

// SweepRow is one offered rate's cells, adaptive first.
type SweepRow struct {
	Rate     float64
	Adaptive CellResult
	Statics  []CellResult

	// Verdict fields, filled by RunSweep:
	BestStaticP99 int64 // min static p99 at this rate
	// RatioX100 is adaptive p99 as a percentage of the best static p99
	// (110 means 10% worse). The acceptance bar is <= 110 everywhere.
	RatioX100 int64
}

// Sweep is a full rate sweep plus its verdicts.
type Sweep struct {
	Cfg  SweepConfig
	Rows []SweepRow

	// MaxRatioX100 is the worst per-rate RatioX100 — the headline
	// "adaptive is within X% of the best static everywhere" number.
	MaxRatioX100 int64

	// StaticWorstX100[i] is static i's worst p99 across the ladder as a
	// percentage of adaptive's p99 at the same rate. The acceptance bar
	// is >= 200 for every static: each fixed point is at least 2x worse
	// than the controller somewhere on the ladder.
	StaticWorstX100 []int64
}

func ratioX100(num, den int64) int64 {
	if den <= 0 {
		if num <= 0 {
			return 100
		}
		return 1 << 30
	}
	return num * 100 / den
}

// RunSweep executes the full rate × operating-point grid on the sweep
// engine (internal/runner): cells run concurrently up to cfg.Jobs wide
// and come back in job order, so the result (and everything derived
// from it) is independent of execution order — `-jobs 1` and `-jobs N`
// produce byte-identical artifacts — and a failing sweep reports its
// lowest-index failing cell.
func RunSweep(cfg SweepConfig) (*Sweep, error) {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 1
	}
	// Row-major, adaptive first: the order SweepRow is assembled in.
	var jobs []runner.Job[CellResult]
	add := func(label string, c Config) {
		jobs = append(jobs, runner.Job[CellResult]{
			Label: label,
			Run: func() (CellResult, error) {
				res, err := Run(c)
				if err != nil {
					return CellResult{}, fmt.Errorf("loadsim: rate %.0f %s: %w", c.Rate, label, err)
				}
				return CellResult{Label: label, Res: res}, nil
			},
		})
	}
	for _, rate := range cfg.Rates {
		base := cfg.Base
		base.Rate = rate
		ad := base
		ad.Adaptive = true
		ad.MaxBatch = cfg.Start.MaxBatch
		ad.BatchWindowNS = cfg.Start.WindowNS
		add("adaptive", ad)
		for _, sp := range cfg.Statics {
			st := base
			st.Adaptive = false
			st.MaxBatch = sp.MaxBatch
			st.BatchWindowNS = sp.WindowNS
			add(sp.String(), st)
		}
	}
	outs, err := runner.Run(runner.Options{Jobs: cfg.Jobs}, jobs)
	if err != nil {
		return nil, err
	}

	sw := &Sweep{Cfg: cfg, Rows: make([]SweepRow, len(cfg.Rates))}
	i := 0
	for ri, rate := range cfg.Rates {
		row := &sw.Rows[ri]
		row.Rate = rate
		row.Adaptive = outs[i].Value
		i++
		for range cfg.Statics {
			row.Statics = append(row.Statics, outs[i].Value)
			i++
		}
	}

	sw.StaticWorstX100 = make([]int64, len(cfg.Statics))
	for ri := range sw.Rows {
		row := &sw.Rows[ri]
		best := int64(-1)
		for si, sc := range row.Statics {
			if best < 0 || sc.Res.P99 < best {
				best = sc.Res.P99
			}
			r := ratioX100(sc.Res.P99, row.Adaptive.Res.P99)
			if r > sw.StaticWorstX100[si] {
				sw.StaticWorstX100[si] = r
			}
		}
		row.BestStaticP99 = best
		row.RatioX100 = ratioX100(row.Adaptive.Res.P99, best)
		if row.RatioX100 > sw.MaxRatioX100 {
			sw.MaxRatioX100 = row.RatioX100
		}
	}
	return sw, nil
}

// SweepReport renders the knee table: one block per rate with every
// operating point's latency line, then the verdict summary. Fixed
// formatting, integers and fixed-precision floats only — the bytes
// are the determinism artifact CI compares across -jobs levels.
func SweepReport(sw *Sweep) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-18s %-9s %-6s %-6s %-9s %-9s %-9s %-9s %-9s\n",
		"rate", "config", "executed", "shed", "rej", "p50ns", "p90ns", "p99ns", "meanbatch", "ctrlsteps")
	for _, row := range sw.Rows {
		line := func(c CellResult) {
			fmt.Fprintf(&b, "%-10.0f %-18s %-9d %-6d %-6d %-9d %-9d %-9d %-9.2f %-9d\n",
				row.Rate, c.Label, c.Res.Executed, c.Res.Shed, c.Res.Rejected,
				c.Res.P50, c.Res.P90, c.Res.P99, c.Res.MeanBatch, c.Res.CtrlSteps)
		}
		line(row.Adaptive)
		for _, sc := range row.Statics {
			line(sc)
		}
	}
	fmt.Fprintf(&b, "\nknee summary (p99, adaptive vs best static per rate):\n")
	fmt.Fprintf(&b, "%-10s %-12s %-12s %-10s\n", "rate", "adaptive", "best_static", "pct")
	for _, row := range sw.Rows {
		fmt.Fprintf(&b, "%-10.0f %-12d %-12d %-10d\n",
			row.Rate, row.Adaptive.Res.P99, row.BestStaticP99, row.RatioX100)
	}
	fmt.Fprintf(&b, "max adaptive/best_static pct: %d\n", sw.MaxRatioX100)
	for si, sp := range sw.Cfg.Statics {
		fmt.Fprintf(&b, "%s worst pct vs adaptive: %d\n", sp.String(), sw.StaticWorstX100[si])
	}
	return b.String()
}

// BenchJSON renders the sweep as the BENCH_9.json artifact. The bytes
// are fully determined by simulated history — integers only, no host
// info, no timestamps — so CI diffs the file against the checked-in
// baseline with cmp and asserts the verdict fields. Keys are emitted
// in a fixed order by construction.
func BenchJSON(sw *Sweep) []byte {
	var b strings.Builder
	b.WriteString("{\n")
	fmt.Fprintf(&b, "  \"schema\": 1,\n")
	fmt.Fprintf(&b, "  \"bench\": \"serving_rate_sweep\",\n")
	base := sw.Cfg.Base.withDefaults()
	fmt.Fprintf(&b, "  \"config\": {\"shards\": %d, \"keys\": %d, \"value_bytes\": %d, \"set_percent\": %d, \"requests\": %d, \"warmup\": %d, \"seed\": %d, \"deadline_ns\": %d, \"queue_depth\": %d},\n",
		base.Shards, base.Keys, base.ValueBytes, base.SetPercent, base.Requests, base.Warmup, base.Seed, base.DeadlineNS, base.QueueDepth)
	fmt.Fprintf(&b, "  \"adaptive_start\": {\"max_batch\": %d, \"window_ns\": %d},\n",
		sw.Cfg.Start.MaxBatch, sw.Cfg.Start.WindowNS)
	b.WriteString("  \"rows\": [\n")
	for ri, row := range sw.Rows {
		cellJSON := func(c CellResult) string {
			return fmt.Sprintf("{\"label\": %q, \"executed\": %d, \"shed\": %d, \"rejected\": %d, \"p50_ns\": %d, \"p90_ns\": %d, \"p99_ns\": %d, \"p999_ns\": %d, \"mean_batch_x100\": %d, \"ctrl_steps\": %d, \"ctrl_trace_fnv\": \"%016x\"}",
				c.Label, c.Res.Executed, c.Res.Shed, c.Res.Rejected,
				c.Res.P50, c.Res.P90, c.Res.P99, c.Res.P999, int64(c.Res.MeanBatch*100+0.5),
				c.Res.CtrlSteps, c.Res.CtrlTraceFNV)
		}
		fmt.Fprintf(&b, "    {\"rate\": %d,\n", int64(row.Rate))
		fmt.Fprintf(&b, "     \"adaptive\": %s,\n", cellJSON(row.Adaptive))
		b.WriteString("     \"statics\": [\n")
		for si, sc := range row.Statics {
			comma := ","
			if si == len(row.Statics)-1 {
				comma = ""
			}
			fmt.Fprintf(&b, "       %s%s\n", cellJSON(sc), comma)
		}
		b.WriteString("     ],\n")
		fmt.Fprintf(&b, "     \"best_static_p99_ns\": %d,\n", row.BestStaticP99)
		fmt.Fprintf(&b, "     \"adaptive_vs_best_pct\": %d}", row.RatioX100)
		if ri != len(sw.Rows)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("  ],\n")
	fmt.Fprintf(&b, "  \"max_adaptive_vs_best_pct\": %d,\n", sw.MaxRatioX100)
	b.WriteString("  \"static_worst_vs_adaptive_pct\": {")
	for si, sp := range sw.Cfg.Statics {
		if si > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: %d", sp.String(), sw.StaticWorstX100[si])
	}
	b.WriteString("},\n")
	pass := sw.MaxRatioX100 <= 110
	for _, w := range sw.StaticWorstX100 {
		if w < 200 {
			pass = false
		}
	}
	fmt.Fprintf(&b, "  \"verdict_pass\": %v\n", pass)
	b.WriteString("}\n")
	return []byte(b.String())
}

// ParseStatics parses a "-static" flag value of the form
// "b:w,b:w,..." (batch cap : window ns) into operating points.
func ParseStatics(s string) ([]StaticPoint, error) {
	var out []StaticPoint
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var p StaticPoint
		if _, err := fmt.Sscanf(part, "%d:%d", &p.MaxBatch, &p.WindowNS); err != nil {
			return nil, fmt.Errorf("loadsim: bad static point %q (want batch:windowNS)", part)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loadsim: no static points in %q", s)
	}
	return out, nil
}

// ParseRates parses a "-ratesweep" flag value "r1,r2,..." into an
// ascending rate ladder.
func ParseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var r float64
		if _, err := fmt.Sscanf(part, "%g", &r); err != nil || r <= 0 {
			return nil, fmt.Errorf("loadsim: bad rate %q", part)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loadsim: no rates in %q", s)
	}
	sort.Float64s(out)
	return out, nil
}
