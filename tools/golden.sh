#!/bin/sh
# golden.sh — prints `labrunner -exp all -quick -seed 1` with exactly its
# timing fields stripped, leaving output that is deterministic on a given
# platform. check.sh diffs it against tools/testdata/labrunner-all-quick-seed1.golden.
# Run from anywhere inside the repo, optionally naming a prebuilt
# labrunner binary (default: go run ./cmd/labrunner):
#
#   tools/golden.sh [labrunner] >tools/testdata/labrunner-all-quick-seed1.golden
#
# Stripped: every "(<experiment> took Ns)" line; Table II's four
# per-row timing summaries and its "(n = ... calls per row ...)" line;
# Figure 8's AvgTime/Step column (replaced by "(time)") and its
# "(RK4/Euler runtime ratio ...)" line.
set -eu

cd "$(dirname "$0")/.."

run="${1:-go run ./cmd/labrunner}"

# shellcheck disable=SC2086 — run may be "go run ./cmd/labrunner"
$run -exp all -quick -seed 1 | sed -E \
	-e '/^\(.* took [0-9.]+s\)$/d' \
	-e '/^Baseline System Call /d' \
	-e '/^With Malicious Wrapper: (Logging|Injection) /d' \
	-e '/^With Dynamic-Model Guard \(defense\) /d' \
	-e '/^\(n = [0-9]+ calls per row; /d' \
	-e 's/^(4th Order Runge Kutta|Euler) +[0-9]+\.[0-9]+ /\1 (time) /' \
	-e '/^\(RK4\/Euler runtime ratio: /d'
