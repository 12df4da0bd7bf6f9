package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoModeIsUsageError: ptmcrash has no default mode — without
// -exhaustive, -fuzz or -replay it must say so on stderr, print its
// flags, write nothing to stdout (the JSON summary channel) and exit
// with the usage code rather than run some check nobody asked for.
func TestNoModeIsUsageError(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ptmcrash")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{nil, {"-seed", "7", "-algo", "redo"}} {
		cmd := exec.Command(bin, args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("ptmcrash %v: err = %v, want exit status 2", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("ptmcrash %v wrote to stdout: %q", args, stdout.String())
		}
		for _, want := range []string{"choose a mode", "-exhaustive", "-fuzz", "-replay"} {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("ptmcrash %v: stderr lacks %q:\n%s", args, want, stderr.String())
			}
		}
	}
}
