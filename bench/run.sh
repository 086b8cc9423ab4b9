#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it
# from the checkout root, passing every argument through:
#
#   bash bench/run.sh --workload vbs_sweep --seed 3 --seconds 20 --trace 0
#
# The Go build cache and the binary live in .bench_build/ at the
# checkout root, so nothing is written outside the checkout and no
# network is used. A failed build exits nonzero without running.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/mtbench" .)
cd "$root"
exec "$out/mtbench" "$@"
