package soak

import (
	"goptm/internal/server"
)

// FlightHarvest is the target's flight-recorder sidecar as the soak
// harness attaches it to a verdict: the dump as the server wrote it,
// with Records trimmed to the newest tail, from the final pre-kill
// mirror window. A SIGKILLed process cannot be asked what it was
// doing; the harvest is the answer its mirror file left behind.
type FlightHarvest struct {
	Path string `json:"path"`
	server.FlightDump
}

// defaultFlightTail bounds the records a harvest carries; the full
// ring can be thousands of entries, and the verdict wants the final
// window, not a bulk dump.
const defaultFlightTail = 32

// harvestFlight reads the sidecar mirrored next to image and trims it
// to the newest tail records. Returns nil when no sidecar exists (old
// binary, flight disabled, or the kill landed before the first mirror
// tick) — a missing harvest is not a violation.
func harvestFlight(image string, tail int) *FlightHarvest {
	if image == "" {
		return nil
	}
	if tail <= 0 {
		tail = defaultFlightTail
	}
	path := server.FlightPath(image)
	d, err := server.ReadFlightDump(path)
	if err != nil {
		return nil
	}
	h := &FlightHarvest{Path: path, FlightDump: *d}
	if len(h.Records) > tail {
		h.Records = h.Records[len(h.Records)-tail:]
	}
	return h
}
