#!/usr/bin/env bash
# Parallel-sweep benchmark harness: measures the experiment sweeps at
# several GOMAXPROCS values (the worker pool defaults to one worker per
# CPU, so `-cpu N` IS the pool size) plus the compiled-engine reuse
# micro-benchmarks, and writes the results to BENCH_parallel.json.
# It also times the exclusion-refinement experiment (mtexp -e refine)
# and writes its bound ladder plus wall time to BENCH_refine.json.
#
#   BENCH_CPUS  comma list for go test -cpu   (default 1,2,4,8)
#   BENCH_TIME  go test -benchtime            (default 1x; use e.g. 5x
#               or 2s for steadier numbers)
#
# Speedups are computed against each benchmark's own cpu=1 row. On a
# single-core machine every speedup is ~1.0 — the harness reports what
# it measures, it does not extrapolate.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_CPUS="${BENCH_CPUS:-1,2,4,8}"
BENCH_TIME="${BENCH_TIME:-1x}"
OUT="BENCH_parallel.json"

sweeps=$(go test -run '^$' \
    -bench 'BenchmarkFig7MultiplierVectorSweep$|BenchmarkFig7MultiplierVectorSweepSerial$|BenchmarkFig14VectorDegradationSpread$|BenchmarkSimulateBatchAdder$' \
    -cpu "$BENCH_CPUS" -benchtime "$BENCH_TIME" -timeout 30m . | tee /dev/stderr)

reuse=$(go test -run '^$' \
    -bench 'BenchmarkEngineRunReuse$|BenchmarkEngineRunFresh$' \
    -benchmem -benchtime "${BENCH_TIME}" -timeout 30m ./internal/spice | tee /dev/stderr)

core=$(go test -run '^$' \
    -bench 'BenchmarkVBSAdderVector$|BenchmarkVBSCompiledAdderVector$' \
    -benchmem -benchtime "${BENCH_TIME}" -timeout 30m . | tee /dev/stderr)

{
    printf '%s\n' "$sweeps" | awk '/^Benchmark/ {print "SWEEP", $0}'
    printf '%s\n' "$reuse" | awk '/^Benchmark/ {print "ALLOC", $0}'
    printf '%s\n' "$core"  | awk '/^Benchmark/ {print "ALLOC", $0}'
} | awk -v cpus="$BENCH_CPUS" -v btime="$BENCH_TIME" '
function basename_cpu(name,    n, parts) {
    # BenchmarkFoo-4 -> ("BenchmarkFoo", 4); no suffix means cpu=1.
    n = split(name, parts, "-")
    if (n > 1 && parts[n] ~ /^[0-9]+$/) {
        cpu = parts[n]
        base = substr(name, 1, length(name) - length(parts[n]) - 1)
    } else {
        cpu = 1
        base = name
    }
}
$1 == "SWEEP" {
    basename_cpu($2)
    ns = ""
    for (i = 3; i <= NF; i++) if ($(i+1) == "ns/op") { ns = $i; break }
    if (ns == "") next
    k = base "@" cpu
    sweep_ns[k] = ns
    if (!(base in seen)) { order[++nb] = base; seen[base] = 1 }
    if (cpu == 1) base_ns[base] = ns
    cpu_seen[cpu] = 1
    next
}
$1 == "ALLOC" {
    basename_cpu($2)
    ns = b = a = ""
    for (i = 3; i <= NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") b = $i
        if ($(i+1) == "allocs/op") a = $i
    }
    na++
    alloc_line[na] = sprintf("    {\"bench\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", base, ns, b, a)
    next
}
END {
    printf "{\n"
    printf "  \"generated_by\": \"scripts/bench.sh\",\n"
    printf "  \"benchtime\": \"%s\",\n", btime
    printf "  \"cpus\": \"%s\",\n", cpus
    printf "  \"note\": \"worker pool = GOMAXPROCS; speedup is vs the same benchmark at cpu=1 on this machine\",\n"
    printf "  \"sweeps\": [\n"
    first = 1
    for (i = 1; i <= nb; i++) {
        base = order[i]
        for (c = 1; c <= 64; c++) {
            k = base "@" c
            if (!(k in sweep_ns)) continue
            sp = (base in base_ns && base_ns[base] > 0) ? base_ns[base] / sweep_ns[k] : 0
            if (!first) printf ",\n"
            first = 0
            printf "    {\"bench\": \"%s\", \"cpu\": %d, \"ns_per_op\": %s, \"speedup_vs_cpu1\": %.2f}", base, c, sweep_ns[k], sp
        }
    }
    printf "\n  ],\n"
    printf "  \"compiled_reuse\": [\n"
    for (i = 1; i <= na; i++) printf "%s%s\n", alloc_line[i], (i < na ? "," : "")
    printf "  ]\n"
    printf "}\n"
}' > "$OUT"

echo "wrote $OUT"

ROUT="BENCH_refine.json"
refine_start=$(date +%s%N)
refine_out=$(go run ./cmd/mtexp -e refine | tee /dev/stderr)
refine_ms=$(( ($(date +%s%N) - refine_start) / 1000000 ))

# The bound-ladder rows end in a "N.NNx" refinement ratio; circuit
# names may contain spaces, so the seven numeric cells are taken from
# the right.
printf '%s\n' "$refine_out" | awk -v ms="$refine_ms" '
/^Bound ladder/ { ladder = 1; next }
ladder && NF == 0 { ladder = 0 }
ladder && NF >= 8 && $NF ~ /^[0-9.]+x$/ {
    name = $1
    for (i = 2; i <= NF - 7; i++) name = name " " $i
    n++
    row[n] = sprintf("    {\"circuit\": \"%s\", \"gates\": %s, \"simulated\": %s, \"refined\": %s, \"static_level\": %s, \"sum_of_widths\": %s, \"proven_exclusions\": %s, \"refinement\": \"%s\"}", \
        name, $(NF-6), $(NF-5), $(NF-4), $(NF-3), $(NF-2), $(NF-1), $NF)
}
END {
    printf "{\n"
    printf "  \"generated_by\": \"scripts/bench.sh\",\n"
    printf "  \"experiment\": \"refine\",\n"
    printf "  \"wall_ms\": %d,\n", ms
    printf "  \"note\": \"bound ladder per circuit: simulated <= refined <= static_level <= sum_of_widths (W/L units)\",\n"
    printf "  \"circuits\": [\n"
    for (i = 1; i <= n; i++) printf "%s%s\n", row[i], (i < n ? "," : "")
    printf "  ]\n"
    printf "}\n"
}' > "$ROUT"

echo "wrote $ROUT"
