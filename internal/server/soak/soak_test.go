package soak

import (
	"path/filepath"
	"testing"
	"time"
)

// --- oracle unit tests ---

func TestOracleAckedSetMustSurvive(t *testing.T) {
	m := newKeyModel()
	m.ackedSet(7)
	if d := m.observe(true, 7); d != "" {
		t.Fatalf("correct read flagged: %s", d)
	}
	if d := m.observe(false, 0); d == "" {
		t.Fatal("lost acked write not flagged")
	}
}

func TestOracleUncertainSetEitherWorld(t *testing.T) {
	m := newKeyModel()
	m.ackedSet(1)
	m.uncertainSet(2)
	if d := m.observe(true, 1); d != "" {
		t.Fatalf("old world flagged: %s", d)
	}
	// After pinning at 1, the unacked 2 must not resurrect.
	if d := m.observe(true, 2); d == "" {
		t.Fatal("refuted uncertain write resurrected unflagged")
	}
}

func TestOracleUncertainSetNewWorld(t *testing.T) {
	m := newKeyModel()
	m.ackedSet(1)
	m.uncertainSet(2)
	if d := m.observe(true, 2); d != "" {
		t.Fatalf("new world flagged: %s", d)
	}
	if d := m.observe(true, 2); d != "" {
		t.Fatalf("pinned state flagged: %s", d)
	}
}

func TestOracleTornValueFlagged(t *testing.T) {
	m := newKeyModel()
	m.ackedSet(10)
	m.uncertainSet(20)
	if d := m.observe(true, 15); d == "" {
		t.Fatal("torn value (neither old nor new) not flagged")
	}
}

func TestOracleUncertainIncrFanout(t *testing.T) {
	m := newKeyModel()
	m.ackedSet(10)
	m.uncertainIncr(3, 2) // 0, 1, or 2 applications
	for _, ok := range []uint64{10, 13, 16} {
		mm := newKeyModel()
		mm.ackedSet(10)
		mm.uncertainIncr(3, 2)
		if d := mm.observe(true, ok); d != "" {
			t.Fatalf("legal incr outcome %d flagged: %s", ok, d)
		}
	}
	if d := m.observe(true, 19); d == "" {
		t.Fatal("three applications of a twice-attempted incr not flagged")
	}
}

func TestOracleIncrAckConsistency(t *testing.T) {
	m := newKeyModel()
	m.ackedSet(10)
	if d := m.ackedIncr(true, 12, 2); d != "" {
		t.Fatalf("consistent incr flagged: %s", d)
	}
	if d := m.ackedIncr(true, 99, 2); d == "" {
		t.Fatal("inexplicable incr result not flagged")
	}
	m2 := newKeyModel()
	m2.ackedSet(5)
	if d := m2.ackedIncr(false, 0, 1); d == "" {
		t.Fatal("NOT_FOUND incr on a definitely-present key not flagged")
	}
}

func TestOracleDeleteConsistency(t *testing.T) {
	m := newKeyModel()
	if d := m.ackedDelete(true); d == "" {
		t.Fatal("DELETED on a definitely-absent key not flagged")
	}
	m2 := newKeyModel()
	m2.ackedSet(1)
	if d := m2.ackedDelete(false); d == "" {
		t.Fatal("NOT_FOUND delete on a definitely-present key not flagged")
	}
	m3 := newKeyModel()
	m3.ackedSet(1)
	if d := m3.ackedDelete(true); d != "" {
		t.Fatalf("legal delete flagged: %s", d)
	}
	if d := m3.observe(false, 0); d != "" {
		t.Fatalf("read after delete flagged: %s", d)
	}
}

func TestOracleWildSuspendsChecking(t *testing.T) {
	m := newKeyModel()
	m.ackedSet(1)
	for i := 0; i < 10; i++ {
		m.uncertainIncr(1, 5) // blow past maxStates
	}
	if !m.wild {
		t.Fatal("fanout did not go wild")
	}
	if d := m.observe(true, 123456); d != "" {
		t.Fatalf("wild model must accept any observation, flagged: %s", d)
	}
	if m.wild {
		t.Fatal("observation did not re-pin a wild model")
	}
	if d := m.observe(true, 999); d == "" {
		t.Fatal("checking did not resume after re-pinning")
	}
}

// --- engine tests (in-process mode) ---

// fastCfg is a short but real soak: several kill/restart cycles with
// concurrent load in a few seconds.
func fastCfg(t *testing.T) Config {
	return Config{
		Mode:          "inproc",
		Image:         filepath.Join(t.TempDir(), "soak.img"),
		Duration:      4 * time.Second,
		Clients:       3,
		KeysPerClient: 6,
		KillMode:      "mix",
		KillMin:       300 * time.Millisecond,
		KillMax:       600 * time.Millisecond,
		Seed:          42,
		Shards:        2,
		Logf:          t.Logf,
	}
}

func TestInprocSoakZeroViolations(t *testing.T) {
	v, err := Run(fastCfg(t))
	if err != nil {
		t.Fatalf("soak run: %v", err)
	}
	if !v.OK {
		t.Fatalf("violations on a durable store: %+v", v.Violations)
	}
	if v.Cycles < 2 || v.Kills < 2 {
		t.Fatalf("soak barely ran: cycles=%d kills=%d", v.Cycles, v.Kills)
	}
	if v.Acked == 0 {
		t.Fatal("soak acked nothing; the oracle never checked a durable write")
	}
	t.Logf("verdict: cycles=%d kills=%d ops=%d acked=%d unknown=%d", v.Cycles, v.Kills, v.Ops, v.Acked, v.Unknown)
}

// TestInprocSoakSelfTest proves the gate can fail: every injected
// kill saves no image and throws the journal away, so the restart
// resurrects the last saved image, the writes acked since then are
// lost, and the oracle must say so.
func TestInprocSoakSelfTest(t *testing.T) {
	cfg := fastCfg(t)
	cfg.NoDurable = true
	cfg.KillMode = "kill"
	v, err := Run(cfg)
	if err != nil {
		t.Fatalf("soak run: %v", err)
	}
	if v.OK || len(v.Violations) == 0 {
		t.Fatalf("weakened store soaked clean — the oracle is blind: %+v", v)
	}
	t.Logf("self-test caught %d violations (first: %+v)", len(v.Violations), v.Violations[0])
}

func TestReproRoundTrip(t *testing.T) {
	cfg := fastCfg(t)
	cfg.NoDurable = true
	r := ReproOf(cfg, Verdict{Violations: []Violation{{Cycle: 2, Phase: "recover", Key: "k", Op: "verify", Detail: "x"}}})
	back := ConfigOf(r, "bin", "img")
	if back.Seed != cfg.Seed || back.KillMode != cfg.KillMode || !back.NoDurable ||
		back.Clients != cfg.Clients || back.Duration != cfg.Duration {
		t.Fatalf("repro did not round-trip: %+v", back)
	}
}
