#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build products, the Go build cache and
# scratch stores stay under .bench_build/ (or $CARGO_TARGET_DIR when
# set), so the benchmark reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export PERFBENCH_OUT=$out

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
