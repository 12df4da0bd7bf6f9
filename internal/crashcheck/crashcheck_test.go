package crashcheck

import (
	"path/filepath"
	"testing"
	"time"

	"goptm/internal/core"
	"goptm/internal/durability"
)

// TestExhaustiveMatrix runs the full checker over every domain × both
// logging algorithms on both built-in workloads: every persist
// boundary, every fault variant, zero violations expected. This is the
// core soundness claim of the persistence protocols — and of the
// checker's oracle (no false positives).
func TestExhaustiveMatrix(t *testing.T) {
	for _, wl := range []Workload{NewCounter(defaultCells, 42), NewTransfer(defaultCells, 43)} {
		for _, algo := range []core.Algo{core.OrecLazy, core.OrecEager} {
			for _, dom := range durability.All() {
				o := Options{Workload: wl, Algo: algo, Domain: dom, Ops: 3}
				rep, err := Run(o)
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", wl.Name(), algo, dom, err)
				}
				if rep.Events == 0 || rep.Points != rep.Events {
					t.Fatalf("%s/%v/%v: visited %d of %d boundaries", wl.Name(), algo, dom, rep.Points, rep.Events)
				}
				if len(rep.Violations) != 0 {
					t.Fatalf("%s/%v/%v: %d violations, first: %s",
						wl.Name(), algo, dom, len(rep.Violations), rep.Violations[0].String())
				}
				if dom.CachePersists() && rep.Variants != rep.Points {
					t.Fatalf("%s/%v/%v: cache-persistent domain grew %d variants for %d points",
						wl.Name(), algo, dom, rep.Variants, rep.Points)
				}
				if !dom.CachePersists() && rep.Variants <= rep.Points {
					t.Fatalf("%s/%v/%v: no adversarial variants generated", wl.Name(), algo, dom)
				}
			}
		}
	}
}

// mutationCase drops one fence site and demands the checker notice:
// the elided ordering must open a window where a committed write can
// be lost, and the violation must shrink to a replayable minimal
// repro. This is the checker checking itself — a checker that passes a
// broken protocol is worse than none.
func mutationCase(t *testing.T, algo core.Algo, site string) {
	t.Helper()
	o := Options{
		Workload: NewCounter(defaultCells, 7), Algo: algo,
		Domain: durability.ADR, Ops: 5, MutateDropFence: site,
	}
	rep, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatalf("dropping %s went undetected across %d points / %d variants", site, rep.Points, rep.Variants)
	}
	v := rep.Violations[0]

	repro, err := Shrink(o, &v)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if repro.Ops > v.Committed+1 {
		t.Fatalf("shrink kept %d ops; %d suffice", repro.Ops, v.Committed+1)
	}
	if len(repro.Faults) > 1 {
		t.Fatalf("shrink kept %d faults: %v", len(repro.Faults), repro.Faults)
	}

	// The repro must survive a JSON round trip and still reproduce.
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := repro.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := Replay(back)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rv == nil {
		t.Fatalf("replayed repro %+v no longer violates", back)
	}
	t.Logf("%s: shrunk to %s", site, rv.String())
}

func TestMutationLazyWritebackFenceDetected(t *testing.T) {
	// lazy:F3 orders the committed writeback before the log is
	// reclaimed; without it the idle marker can persist while a
	// writeback line is still in flight — a lost committed write.
	mutationCase(t, core.OrecLazy, "lazy:F3")
}

func TestMutationEagerCommitFenceDetected(t *testing.T) {
	// eager:Fc2 makes the idle marker durable at commit; without it
	// the in-flight lines of the commit epilogue lose their ordering
	// against the next transaction's log writes.
	mutationCase(t, core.OrecEager, "eager:Fc2")
}

// TestFuzzSmoke exercises the sampling mode end to end: points are
// drawn from the recorded boundary set and each gets the identical
// full variant sweep, so a clean protocol stays clean.
func TestFuzzSmoke(t *testing.T) {
	o := Options{Workload: NewTransfer(defaultCells, 99), Algo: core.OrecLazy, Domain: durability.ADR, Ops: 4}
	rep, err := Fuzz(o, 200*time.Millisecond, 0xF00D)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points == 0 {
		t.Fatal("fuzz visited no points")
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("fuzz found violations on a sound protocol: %s", rep.Violations[0].String())
	}
}

// TestCheckerRejectsHTM: an HTM commit is hardware-atomic, so the
// enumeration is meaningless and must be refused loudly rather than
// silently vacuous.
func TestCheckerRejectsHTM(t *testing.T) {
	o := Options{Workload: NewCounter(defaultCells, 1), Algo: core.AlgoHTM, Domain: durability.EADR, Ops: 2}
	if _, err := Run(o); err == nil {
		t.Fatal("HTM accepted")
	}
}
