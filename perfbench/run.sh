#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload fresh --seed 1 --seconds 50 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (binary, Go build cache and temporary files, span files) lands under
# .bench_build/ in the working directory, and the user's Go configuration
# is not read. Build output goes to stderr so the last line of stdout
# stays the benchmark's JSON result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
