#!/bin/sh
# fuzz_smoke.sh — short fuzzing pass over every fuzz target.
#
# `go test -fuzz` takes exactly one target per invocation, so this
# enumerates the targets per package and gives each FUZZTIME (default 10s)
# of coverage-guided input generation on top of its seed corpus. Any
# crasher fails the run (and `go test` writes the reproducer under
# testdata/fuzz). FUZZ_PKGS lists the packages holding fuzz targets; a
# package that loses all of its targets fails the run rather than being
# silently skipped.
set -eu
cd "$(dirname "$0")/.."
FUZZTIME=${FUZZTIME:-10s}
FUZZ_PKGS=${FUZZ_PKGS:-". ./internal/automaton ./internal/cluster ./internal/mdl ./internal/rematch"}

found=0
for pkg in $FUZZ_PKGS; do
	targets=$(go test -list 'Fuzz.*' "$pkg" | grep '^Fuzz' || true)
	if [ -z "$targets" ]; then
		echo "fuzz-smoke: no fuzz targets found in $pkg" >&2
		exit 1
	fi
	for t in $targets; do
		found=$((found + 1))
		echo "fuzz-smoke: $pkg $t ($FUZZTIME)"
		go test -run '^$' -fuzz "^$t\$" -fuzztime "$FUZZTIME" "$pkg"
	done
done
echo "fuzz-smoke: all $found targets clean"
