#!/usr/bin/env bash
# Entry point BENCHMARK.json names. Builds the benchmark driver from
# bench/ (a module of its own) and hands it the arguments. Everything
# the Go toolchain and the benchmark write stays under .bench_build/ in
# the checkout: build cache, module path, temp files, binaries, images.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
b="$PWD/.bench_build"
mkdir -p "$b/bin" "$b/tmp"
export GOCACHE="$b/go-cache" GOPATH="$b/go-path" GOTMPDIR="$b/tmp" TMPDIR="$b/tmp"
export XDG_CONFIG_HOME="$b/config" GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$b/bin/bench" .)
exec "$b/bin/bench" "$@"
