package goptm

import (
	"os/exec"
	"testing"
)

// TestBenchModuleBuilds vets and builds the nested bench/ module, which
// the root `./...` patterns skip. bench/layers links goptm/internal and
// names its config fields and constructors, and bench/ is frozen between
// benchmark PRs: a rename here must fail `go test ./...`, not the
// benchmark pipeline after the PR is up. The module's only dependency is
// `replace goptm => ../`, so this needs no network.
func TestBenchModuleBuilds(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"build", "./..."}} {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "bench"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("bench: go %v: %v\n%s", args, err, out)
		}
	}
}
