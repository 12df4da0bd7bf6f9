package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"goptm/internal/core"
	"goptm/internal/durability"
)

// goldenHash pins the rendered output of a fixed lockstep mini-sweep.
// Lockstep simulations are pure functions of their configuration, so
// this hash must not move unless the timing model or the workloads
// change (in which case re-derive it with `go test -run TestGoldenSweep
// -v`).
// It is the regression guard for scheduler rewrites: any change to the
// lockstep engine that alters grant order shows up here as a byte
// difference before it can silently invalidate archived figures.
const goldenHash = "310c39031a59079928dd34fc06c6f9fc5e69d9d0a8ed5f908f54a63817f59cdc"

// TestGoldenSweepByteIdentical runs a small fixed sweep and asserts
// the rendered figure is byte-for-byte what the scheduler produced
// when the hash was pinned.
func TestGoldenSweepByteIdentical(t *testing.T) {
	p := Params{Threads: []int{1, 2}, WarmupNS: 100_000, MeasureNS: 500_000, Small: true}
	cells := []Cell{
		{Medium: core.MediumNVM, Domain: durability.ADR, Algo: core.OrecLazy},
		{Medium: core.MediumNVM, Domain: durability.EADR, Algo: core.OrecEager},
	}
	fig, err := RunPanel("Golden", TATPWorkload(), cells, p, serialOpts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fig.Print(&buf)
	sum := sha256.Sum256(buf.Bytes())
	got := hex.EncodeToString(sum[:])
	if got != goldenHash {
		t.Fatalf("golden sweep output changed:\n got %s\nwant %s\noutput:\n%s", got, goldenHash, buf.String())
	}
}
