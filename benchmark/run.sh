#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache included,
# so nothing is written outside the checkout) and runs it with the given
# arguments. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload steady2d --seed 11 --seconds 10 --trace 0
set -euo pipefail
root=$PWD
[ -f "$root/benchmark/go.mod" ] || { echo "run.sh: run from the repository root" >&2; exit 2; }
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/picpar-benchmark" .)
exec "$build/picpar-benchmark" "$@"
