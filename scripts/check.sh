#!/usr/bin/env bash
# Repository gate: formatting, vet, build, race-enabled tests.
# Run from anywhere; exits nonzero on the first failure.
# CHECK_TIMEOUT bounds the test phases (go test -timeout; default 10m).
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK_TIMEOUT="${CHECK_TIMEOUT:-10m}"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== staticcheck =="
# Pinned in CI (see .github/workflows/ci.yml); locally it runs when the
# binary is on PATH and is skipped otherwise, since this script must
# work offline.
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping (CI runs it)"
fi

echo "== govulncheck =="
# Pinned in CI (see .github/workflows/ci.yml); locally it runs when the
# binary is on PATH and is skipped otherwise — the vulnerability
# database lookup needs the network and this script must work offline.
if command -v govulncheck >/dev/null 2>&1; then
    govulncheck ./...
else
    echo "govulncheck not installed; skipping (CI runs it)"
fi

echo "== go build =="
go build ./...

echo "== examples =="
# go build compiles the examples but never runs them; each runs the
# facade end to end in well under a second, and a nonzero exit fails.
for main in examples/*/main.go; do
    dir="./$(dirname "$main")"
    echo "$dir"
    go run "$dir" >/dev/null
done

echo "== go test -race =="
go test -race -timeout "$CHECK_TIMEOUT" ./...

echo "== fault-injection gate (-race) =="
go test -race -timeout "$CHECK_TIMEOUT" -count=1 ./internal/faultinject/ ./internal/spice/

echo "== parallel-sweep gate (-race) =="
# Determinism and thread-safety of the sweep executor and the compiled
# engines: identical results at any worker count, concurrent runs on
# shared engines and shared circuits, atomic fault counters.
go test -race -timeout "$CHECK_TIMEOUT" -count=1 \
    -run 'TestMap|TestWorkers|TestCompiledConcurrentRuns|TestEngineConcurrentRuns|TestConcurrentInjection|TestWorkerCountIndependence|TestFig7WorkerCountInvariant|TestFig14WorkerCountInvariant|TestWorstVectorSearch|TestSimWLSweep|TestExpWorkersFlag|TestFacadeBatchAndSweep|TestRestartIndependentSeeds|TestRefineLevelsWorkerInvariance|TestRefineDeckWorkerInvariance|TestRefineWorkerCountInvariant|TestSimultaneousWidthConcurrent|TestAnalyzeConcurrent' \
    ./internal/sched/ ./internal/core/ ./internal/spice/ ./internal/faultinject/ \
    ./internal/sizing/ ./internal/experiments/ ./internal/vectors/ ./internal/cli/ \
    ./internal/sca/ ./internal/hierarchy/ .

echo "== prove gate (-race) =="
# The path-condition prover over the example decks on the parallel
# executor: witnesses, MT023, and MT019 suppression must hold under
# the race detector, and warnings are errors so a regression that
# un-suppresses a proven-driven node fails the gate.
go run -race ./cmd/mtlint -prove -verbose -werror -j 8 examples/decks/*.sp

echo "== bench module =="
# bench/ is its own module (replace mtcmos => ../); the root-module
# gates above never compile it, so this is the check that the facade
# still builds for the benchmark driver.
(cd bench && go vet . && go test .)

echo "all checks passed"
