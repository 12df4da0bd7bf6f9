package soak

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"goptm/internal/server"
)

// TestHarvestFlight: a sidecar in the server's FlightDump schema
// round-trips into a trimmed harvest; absence is nil, not an error.
func TestHarvestFlight(t *testing.T) {
	dir := t.TempDir()
	image := filepath.Join(dir, "kv.img")

	if h := harvestFlight(image, 0); h != nil {
		t.Fatalf("harvest without a sidecar: %+v", h)
	}
	if h := harvestFlight("", 0); h != nil {
		t.Fatal("harvest with no image path should be nil")
	}

	d := server.FlightDump{Schema: 2, Seq: 50,
		Samples: []server.FlightSample{{QueueDepth: 3, Counters: map[string]int64{"commits": 9}}}}
	for i := 1; i <= 50; i++ {
		d.Records = append(d.Records, server.FlightRecord{Seq: uint64(i), Op: 1, Shard: uint16(i % 4)})
	}
	blob, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(server.FlightPath(image), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	h := harvestFlight(image, 8)
	if h == nil {
		t.Fatal("harvest came back nil despite a sidecar")
	}
	if h.Schema != 2 || h.Path != server.FlightPath(image) {
		t.Fatalf("harvest lost the dump header: schema %d, path %q", h.Schema, h.Path)
	}
	if h.Seq != 50 {
		t.Fatalf("seq = %d, want 50", h.Seq)
	}
	if len(h.Records) != 8 {
		t.Fatalf("tail kept %d records, want 8", len(h.Records))
	}
	if got := h.Records[len(h.Records)-1].Seq; got != 50 {
		t.Fatalf("tail ends at seq %d, want the newest (50)", got)
	}
	if len(h.Samples) != 1 || h.Samples[0].Counters["commits"] != 9 {
		t.Fatalf("samples lost: %+v", h.Samples)
	}

	// Default tail applies when unset.
	if h := harvestFlight(image, 0); len(h.Records) != defaultFlightTail {
		t.Fatalf("default tail kept %d, want %d", len(h.Records), defaultFlightTail)
	}
}
