#!/usr/bin/env bash
# Builds the benchmark from the source checkout it sits in and runs it with
# the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare base.jsonl new.jsonl
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ in the checkout. Without the repository's
# sources next to perfbench/ the build fails and no result is printed.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
