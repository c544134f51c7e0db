#!/usr/bin/env bash
# Builds the benchmark and the svserver daemon it drives from this
# checkout's sources, then runs one workload:
#
#   bash perfbench/run.sh --workload exact_n1e5 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (Go build cache included).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
# The benchmark needs no module downloads: never reach for the network.
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/svserver" knnshapley/cmd/svserver
cd "$root"
exec "$out/perfbench" --svserver "$out/svserver" --workdir "$out/work" \
    --spans "$out/spans" "$@"
