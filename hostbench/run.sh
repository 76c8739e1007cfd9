#!/usr/bin/env bash
# Builds hostbench from source and runs it, passing every argument on.
# Run from the repository root:
#
#   bash hostbench/run.sh --workload apps --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the toolchain's telemetry, the
# binary and the traced run's folded stacks all stay under .bench_build/ in
# the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd hostbench && go build -buildvcs=false -o "$out/hostbench" .)
exec "$out/hostbench" "$@"
