#!/bin/sh
# check_run_patterns_selftest.sh — show that check_run_patterns.sh catches
# a made-up test name: a Makefile whose -run pattern names one real test
# and one that does not exist must fail the check, and the same Makefile
# without the made-up name must pass it.
set -eu
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

printf 'flake-check:\n\t$(GO) test -run %s ./internal/unifi\n' \
	"'TestPlanEqual|TestNoSuchTestAnywhere'" >"$tmp/bad.mk"
printf 'flake-check:\n\t$(GO) test -run %s ./internal/unifi\n' \
	"'TestPlanEqual'" >"$tmp/good.mk"

if sh scripts/check_run_patterns.sh "$tmp/bad.mk" 2>"$tmp/err"; then
	echo "run-patterns selftest: a made-up test name passed the check" >&2
	exit 1
fi
if ! grep -q TestNoSuchTestAnywhere "$tmp/err"; then
	echo "run-patterns selftest: the failure did not name the made-up test:" >&2
	cat "$tmp/err" >&2
	exit 1
fi
sh scripts/check_run_patterns.sh "$tmp/good.mk" >/dev/null
echo "run-patterns selftest: made-up name caught, real name passes"
