package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"goptm/bench/sysprobe"
)

// simFigures are the paper-reproduction sweeps sim_sweep runs at
// ptmbench's quick scale, with the number of cells each has. Every
// cell runs as its own `ptmbench -fig F -jobs 1 -shard i/n` process,
// so a cell is the unit of work, of latency and of CPU accounting.
var simFigures = []struct{ fig, cells int }{{4, 32}, {8, 28}}

// simSetupRounds is more than the kv workloads' three because a
// round is a tenth of a second of process start-up, and noisier for it.
const simSetupRounds = 7

// simCell names one sweep cell.
type simCell struct{ fig, index, of int }

func (c simCell) String() string { return fmt.Sprintf("fig%d-cell%02d", c.fig, c.index) }

func simCells() []simCell {
	var cells []simCell
	for _, f := range simFigures {
		for i := 1; i <= f.cells; i++ {
			cells = append(cells, simCell{f.fig, i, f.cells})
		}
	}
	return cells
}

// simRun is what one sim_sweep run measured.
type simRun struct {
	interval time.Duration // first cell's start to last cell's end
	cellNS   []int64       // host time of each cell process
	peakRSS  []float64     // KiB, each round's largest cell process
	setups   []float64
	rounds   int
	checks   []check
}

// runCell runs one cell to completion and returns its CSV bytes.
func runCell(bins binaries, dir string, c simCell) (csv []byte, wall time.Duration, maxRSSKiB int64, err error) {
	path := filepath.Join(dir, c.String()+".csv")
	os.Remove(path) // ptmbench appends
	cmd := exec.Command(bins.ptmbench, "-fig", fmt.Sprint(c.fig), "-jobs", "1",
		"-shard", fmt.Sprintf("%d/%d", c.index, c.of), "-csv", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, 0, 0, fmt.Errorf("ptmbench %s: %v: %s", c, err, bytes.TrimSpace(stderr.Bytes()))
	}
	wall = time.Since(start)
	csv, err = os.ReadFile(path)
	return csv, wall, cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss, err
}

// runSim runs whole rounds of every cell, in an order drawn from seed,
// until seconds have passed and at least two rounds are done: a round
// is never cut short, because cells differ in cost by two orders of
// magnitude and a partial round would make throughput depend on which
// cells happened to fit. Every later round's CSV must match the first
// round's byte for byte — lockstep simulation has no other answer.
func runSim(bins binaries, dir string, cells []simCell, seed uint64, seconds time.Duration) (*simRun, error) {
	run := &simRun{}
	if err := sysprobe.ResetPeakRSS(); err != nil {
		// Run alone, as the driver runs it, this process is smaller than
		// any cell and the cells' Maxrss is their own all the same.
		fmt.Fprintf(os.Stderr, "bench: peak RSS not reset, cells may report this process's: %v\n", err)
	}
	order := rand.New(rand.NewPCG(seed, 0)).Perm(len(cells))

	// Set-up is what precedes the first measured cell: the first cell of
	// each figure, run once so the binary and its tables are paged in.
	for round := 0; round < simSetupRounds; round++ {
		start := time.Now()
		for _, c := range cells {
			if c.index == 1 {
				if _, _, _, err := runCell(bins, dir, c); err != nil {
					return nil, err
				}
			}
		}
		run.setups = append(run.setups, time.Since(start).Seconds())
	}

	first := make([][]byte, len(cells))
	parsed := check{Name: "cells", Detail: "every cell wrote one CSV row with a positive rate"}
	same := check{Name: "determinism"}
	start := time.Now()
	for run.rounds < 2 || time.Since(start) < seconds {
		var peak int64
		for _, i := range order {
			csv, wall, rss, err := runCell(bins, dir, cells[i])
			if err != nil {
				return nil, err
			}
			run.cellNS = append(run.cellNS, wall.Nanoseconds())
			peak = max(peak, rss)
			if run.rounds > 0 {
				same.Units++
				if !bytes.Equal(csv, first[i]) {
					same.Bad++
				}
				continue
			}
			first[i] = csv
			parsed.Units++
			rows, err := sysprobe.ParseSweepCSV(csv)
			if err == nil && len(rows) != 1 {
				err = fmt.Errorf("%d rows for a one-cell shard", len(rows))
			}
			if err != nil {
				parsed.Bad++
				parsed.Detail = fmt.Sprintf("%s: %v", cells[i], err)
			}
		}
		run.peakRSS = append(run.peakRSS, float64(peak))
		run.rounds++
	}
	run.interval = time.Since(start)
	same.Detail = fmt.Sprintf("%d of %d later cell runs differed from round 1's CSV, over %d rounds", same.Bad, same.Units, run.rounds)
	run.checks = append(run.checks, parsed, same)
	return run, nil
}
