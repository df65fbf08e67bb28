#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
# Every build and run artifact stays under .bench_build in the working
# directory: the Go build cache, the binary and the run's scratch files.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
