package crashcheck

import (
	"fmt"

	"goptm/internal/core"
	"goptm/internal/memdev"
	"goptm/internal/simtime"
)

// A Workload is a deterministic transactional program the checker can
// re-run any number of times. Determinism is load-bearing: every op is
// a pure function of (seed, op index), so re-running ops 0..k produces
// a bit-identical persist-event stream — which is what lets the
// checker cut execution at event k discovered in a recording pass, and
// lets a shrunk repro (fewer ops, same event index) hit the same
// machine state.
type Workload interface {
	// Name identifies the workload in reports and repro files; Lookup
	// resolves it back.
	Name() string
	// Seed reports the determinism seed the workload was built with.
	Seed() uint64
	// Cells reports how many observable heap words the workload owns.
	Cells() int
	// Setup formats the initial heap state (allocate cells, publish the
	// root) and must leave it durable under every domain — the checker
	// quiesces the device afterward and starts enumerating crashes only
	// from the first op.
	Setup(tm *core.TM, th *core.Thread)
	// Op runs operation i as one transaction.
	Op(tm *core.TM, th *core.Thread, i int)
	// Model returns the expected cell values after ops 0..n-1 have
	// committed (the shadow model the oracle compares against).
	Model(n int) []uint64
	// ReadCells reads the cells back from a recovered heap.
	ReadCells(tm *core.TM, th *core.Thread) []uint64
}

// opRand derives the deterministic random word for op i, so op
// parameters depend only on (seed, index).
func opRand(seed uint64, i int) uint64 {
	return simtime.SplitMix64(seed ^ simtime.SplitMix64(uint64(i)+1))
}

// rootSlot is the heap root slot the workloads publish their cell
// array in.
const rootSlot = 0

// setupCells allocates and zero-fills an n-cell array, durably, and
// publishes it in the root slot. Shared by the workloads.
func setupCells(tm *core.TM, th *core.Thread, n int, init uint64) {
	ctx := th.Ctx()
	a := tm.Heap().Alloc(ctx, uint64(n))
	for c := 0; c < n; c++ {
		ctx.Store(a+memdev.Addr(c), init)
	}
	// Flush every cell: the array base is not line-aligned (allocator
	// header), so striding by WordsPerLine from a would miss the tail
	// line. Redundant clwbs of a line are harmless.
	for c := 0; c < n; c++ {
		ctx.CLWB(a + memdev.Addr(c))
	}
	ctx.SFence()
	tm.SetRoot(th, rootSlot, a)
}

// readCells loads the cell array back through the root slot.
func readCells(tm *core.TM, th *core.Thread, n int) []uint64 {
	a := tm.Root(th, rootSlot)
	out := make([]uint64, n)
	for c := 0; c < n; c++ {
		out[c] = th.Ctx().Load(a + memdev.Addr(c))
	}
	return out
}

// Counter is the seed workload: op i increments one of the cells,
// chosen deterministically. Single-word transactions make it the
// smallest program that exercises the full persistence protocol, and
// its model is trivially checkable.
type Counter struct {
	seed  uint64
	cells int
}

// NewCounter builds the counter workload.
func NewCounter(cells int, seed uint64) *Counter {
	return &Counter{seed: seed, cells: cells}
}

// Name implements Workload.
func (w *Counter) Name() string { return "counter" }

// Seed implements Workload.
func (w *Counter) Seed() uint64 { return w.seed }

// Cells implements Workload.
func (w *Counter) Cells() int { return w.cells }

// Setup implements Workload.
func (w *Counter) Setup(tm *core.TM, th *core.Thread) {
	setupCells(tm, th, w.cells, 0)
}

// cell picks op i's target cell.
func (w *Counter) cell(i int) int {
	return int(opRand(w.seed, i) % uint64(w.cells))
}

// Op implements Workload.
func (w *Counter) Op(tm *core.TM, th *core.Thread, i int) {
	c := memdev.Addr(w.cell(i))
	th.Atomic(func(tx *core.Tx) {
		a := tm.Root(th, rootSlot)
		tx.Store(a+c, tx.Load(a+c)+1)
	})
}

// Model implements Workload.
func (w *Counter) Model(n int) []uint64 {
	out := make([]uint64, w.cells)
	for i := 0; i < n; i++ {
		out[w.cell(i)]++
	}
	return out
}

// ReadCells implements Workload.
func (w *Counter) ReadCells(tm *core.TM, th *core.Thread) []uint64 {
	return readCells(tm, th, w.cells)
}

// Transfer moves value between cells: op i moves a deterministic
// amount from one cell to another in a single transaction. Unlike
// Counter, every op writes two cells (on different cache lines once
// cells > 8), so a crash that persists half a transaction breaks
// conservation — the classic atomicity probe.
type Transfer struct {
	seed  uint64
	cells int
}

// transferInit is each cell's starting balance.
const transferInit = 1000

// NewTransfer builds the transfer workload.
func NewTransfer(cells int, seed uint64) *Transfer {
	return &Transfer{seed: seed, cells: cells}
}

// Name implements Workload.
func (w *Transfer) Name() string { return "transfer" }

// Seed implements Workload.
func (w *Transfer) Seed() uint64 { return w.seed }

// Cells implements Workload.
func (w *Transfer) Cells() int { return w.cells }

// Setup implements Workload.
func (w *Transfer) Setup(tm *core.TM, th *core.Thread) {
	setupCells(tm, th, w.cells, transferInit)
}

// params derives op i's (from, to, amount).
func (w *Transfer) params(i int) (from, to int, amt uint64) {
	r := opRand(w.seed, i)
	from = int(r % uint64(w.cells))
	to = int((r >> 16) % uint64(w.cells))
	if to == from {
		to = (to + 1) % w.cells
	}
	amt = r>>32%3 + 1
	return from, to, amt
}

// Op implements Workload.
func (w *Transfer) Op(tm *core.TM, th *core.Thread, i int) {
	from, to, amt := w.params(i)
	th.Atomic(func(tx *core.Tx) {
		a := tm.Root(th, rootSlot)
		tx.Store(a+memdev.Addr(from), tx.Load(a+memdev.Addr(from))-amt)
		tx.Store(a+memdev.Addr(to), tx.Load(a+memdev.Addr(to))+amt)
	})
}

// Model implements Workload.
func (w *Transfer) Model(n int) []uint64 {
	out := make([]uint64, w.cells)
	for c := range out {
		out[c] = transferInit
	}
	for i := 0; i < n; i++ {
		from, to, amt := w.params(i)
		out[from] -= amt
		out[to] += amt
	}
	return out
}

// ReadCells implements Workload.
func (w *Transfer) ReadCells(tm *core.TM, th *core.Thread) []uint64 {
	return readCells(tm, th, w.cells)
}

// defaultCells sizes the built-in workloads: two cache lines of cells,
// so transactions cross line boundaries without bloating the
// enumeration.
const defaultCells = 16

// Lookup rebuilds a built-in workload from its Name and seed — the
// resolution step of repro replay.
func Lookup(name string, seed uint64) (Workload, error) {
	switch name {
	case "counter":
		return NewCounter(defaultCells, seed), nil
	case "transfer":
		return NewTransfer(defaultCells, seed), nil
	default:
		return nil, fmt.Errorf("crashcheck: unknown workload %q", name)
	}
}
