#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# flags, from the checkout's root:
#
#   bash mscopebench/run.sh --workload batch --seed 17 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/mscopebench" && go build -o "$out/mscopebench" .)
exec "$out/mscopebench" "$@"
