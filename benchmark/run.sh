#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build and the run write — Go's build cache, temp files,
# the binary, the checkpoint images — stays under .bench_build/ at the
# checkout root, which .gitignore names.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/hacbenchmark" .)
exec "$out/hacbenchmark" -tmp "$out/tmp" "$@"
