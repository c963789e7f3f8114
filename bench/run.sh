#!/usr/bin/env bash
# Builds clxd, clxproxy and the benchmark program from the working tree,
# then runs it with the given arguments. Run it from the root of
# the repository:
#
#   bash bench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ (the Go build
# cache included), so a checkout is the only place it touches.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
mkdir -p "$out/bin" "$GOTMPDIR"

go build -o "$out/bin/" ./cmd/clxd ./cmd/clxproxy
(cd bench && go build -o "$out/bin/benchrun" .)
exec "$out/bin/benchrun" -bin "$out/bin" -work "$out" "$@"
