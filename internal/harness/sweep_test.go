package harness

import (
	"bytes"
	"testing"

	"goptm/internal/core"
	"goptm/internal/runner"
)

// sweepTestParams is a tiny panel that still exercises contention and
// the latency histogram: two thread counts, short windows, small data.
func sweepTestParams() Params {
	return Params{Threads: []int{1, 2}, WarmupNS: 100_000, MeasureNS: 400_000, Small: true}
}

func renderFigure(t *testing.T, f Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	f.Print(&buf)
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepDeterminism is the regression test for the engine's core
// guarantee: a parallel sweep renders byte-identical output to the
// serial one.
func TestSweepDeterminism(t *testing.T) {
	p := sweepTestParams()
	mk := table12Maker()
	cells := TableIOrIICells(core.OrecLazy)

	serial, err := RunPanel("Table I", mk, cells, p, runner.Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunPanel("Table I", mk, cells, p, runner.Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, want := renderFigure(t, par), renderFigure(t, serial)
	if !bytes.Equal(got, want) {
		t.Errorf("parallel output differs from serial:\n--- serial ---\n%s\n--- jobs=4 ---\n%s", want, got)
	}
}

// TestSweepShardsPartitionFigure checks that shards cover disjoint
// point sets and the unsharded run is their union.
func TestSweepShardsPartitionFigure(t *testing.T) {
	p := sweepTestParams()
	mk := table12Maker()
	cells := TableIOrIICells(core.OrecLazy)

	full, err := RunPanel("Table I", mk, cells, p, runner.Options{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	merged := Figure{Name: full.Name, Workload: full.Workload, Threads: full.Threads}
	for _, cell := range cells {
		merged.Series = append(merged.Series, Series{Cell: cell, Results: make([]Result, len(p.Threads))})
	}
	for shard := 0; shard < 2; shard++ {
		fig, err := RunPanel("Table I", mk, cells, p, runner.Options{
			Jobs: 2, Shard: runner.Shard{Index: shard, Count: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		for si, s := range fig.Series {
			for ri, r := range s.Results {
				if r.Workload == "" {
					continue // not this shard's point
				}
				if merged.Series[si].Results[ri].Workload != "" {
					t.Fatalf("point (%d,%d) owned by two shards", si, ri)
				}
				merged.Series[si].Results[ri] = r
			}
		}
	}
	got, want := renderFigure(t, merged), renderFigure(t, full)
	if !bytes.Equal(got, want) {
		t.Errorf("merged shards differ from full run:\n--- full ---\n%s\n--- merged ---\n%s", want, got)
	}
}

// TestFig8Determinism covers the map-carrying Fig8 path (one job per
// (items, cell) point) at a reduced working-set sweep.
func TestFig8Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("fig8 sweep in -short mode")
	}
	p := Params{Threads: []int{1}, WarmupNS: 50_000, MeasureNS: 200_000, Small: true}
	serial, err := RunFig8(p, runner.Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunFig8(p, runner.Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	PrintFig8(serial, &a)
	if err := WriteFig8CSV(serial, &a); err != nil {
		t.Fatal(err)
	}
	PrintFig8(par, &b)
	if err := WriteFig8CSV(par, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("fig8 parallel output differs from serial:\n--- serial ---\n%s\n--- jobs=4 ---\n%s", a.String(), b.String())
	}
}
