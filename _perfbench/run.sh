#!/usr/bin/env bash
# Builds the PerfDMF benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash _perfbench/run.sh --workload browse --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory: the Go build cache, the go command's own config and telemetry
# files, the binary, the per-run archives (removed when the run ends) and
# the traced run's span dump.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOMODCACHE="$out/gomod" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/_perfbench" && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out/work" -trace-out "$out/trace" "$@"
