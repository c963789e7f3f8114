#!/bin/sh
# check_run_patterns.sh — fail when a Makefile `-run` pattern names no test.
#
# `go test -run 'TestA|TestB'` still passes after TestB is deleted or
# renamed: the regexp just selects less. For every recipe line of the
# checked targets that carries `-run '...'`, each `|`-separated alternative
# must match at least one test (`go test -list`) in that line's packages.
# Alternatives are split on every `|`, so patterns must not group
# alternations in parentheses.
#
# Usage: sh scripts/check_run_patterns.sh [makefile]   (default: Makefile)
# RUN_PATTERN_TARGETS overrides the checked targets.
set -eu
cd "$(dirname "$0")/.."
mk=${1:-Makefile}
targets=${RUN_PATTERN_TARGETS:-"apply-parity profile-parity cluster-smoke session-smoke flake-check"}

# Join continuation lines and print the -run recipe lines of the targets.
lines=$(awk -v targets=" $targets " '
	/\\$/ { sub(/\\$/, ""); buf = buf $0; next }
	{ line = buf $0; buf = "" }
	line ~ /^[A-Za-z0-9_.-]+:/ { t = line; sub(/:.*/, "", t); in_t = index(targets, " " t " ") > 0; next }
	line == "" { next }
	line !~ /^\t/ { in_t = 0; next }
	in_t && line ~ /-run \047/ { print line }
' "$mk")

fail=0
checked=0
while IFS= read -r line; do
	[ -n "$line" ] || continue
	pattern=$(printf '%s\n' "$line" | sed -n "s/.*-run '\([^']*\)'.*/\1/p")
	pkgs=""
	for word in $(printf '%s\n' "$line" | sed "s/.*-run '[^']*'//"); do
		case "$word" in .*) pkgs="$pkgs $word" ;; esac
	done
	oldifs=$IFS
	IFS='|'
	set -- $pattern
	IFS=$oldifs
	for alt in "$@"; do
		checked=$((checked + 1))
		# shellcheck disable=SC2086 # pkgs is a word list
		if ! go test -list "$alt" $pkgs | grep -q '^\(Test\|Fuzz\|Benchmark\|Example\)'; then
			echo "run-patterns: '$alt' in -run '$pattern' names no test in$pkgs" >&2
			fail=1
		fi
	done
done <<EOT
$lines
EOT

if [ "$checked" = 0 ]; then
	echo "run-patterns: no -run patterns found for targets: $targets" >&2
	exit 1
fi
if [ "$fail" = 0 ]; then
	echo "run-patterns: all $checked alternatives name a test"
fi
exit "$fail"
