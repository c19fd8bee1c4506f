#!/usr/bin/env bash
# check_bench.sh — the CI benchmark gate.
#
# Usage: check_bench.sh <base.txt> <new.txt>
#
# Both files are raw `go test -bench -benchmem` output: in CI, the parent
# commit's and this commit's passes that scripts/bench_pair.sh runs
# interleaved in one job, so both come from the same machine at the same
# time. The script prints a benchstat comparison when benchstat is
# installed (informational), then gates on two axes:
#
#   ns/op   — the mean of each NAMED hot benchmark must not regress by
#             more than 30% (override with BENCH_GATE_THRESHOLD, a ratio,
#             e.g. 1.30). Absolute ns/op only compares on one machine, so
#             this axis ARMS ONLY when the `cpu:` lines of base and new
#             agree, as they do for two runs of one job; set
#             BENCH_GATE_REQUIRE_MATCH=1 to fail on a mismatch instead.
#   allocs/op — hardware-independent, so this axis gates REGARDLESS of
#             the cpu match. The ZERO_ALLOC benchmarks must report exactly
#             0 allocs/op (these are the serving-plane hot paths whose
#             zero-allocation contract this repo's tests pin; any value
#             above 0 is a regression and fails even with no base entry).
#             The remaining named benchmarks fail when mean allocs/op
#             regresses by more than BENCH_GATE_ALLOC_THRESHOLD (default
#             1.30) against a base that carries allocs data.
#
# NEW benchmarks (present in this run, absent from the base run) never
# fail the ns/op gate; they are reported per name AND in a closing summary
# line.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <base.txt> <new.txt>" >&2
    exit 2
fi
BASE="$1"
NEW="$2"
THRESHOLD="${BENCH_GATE_THRESHOLD:-1.30}"
ALLOC_THRESHOLD="${BENCH_GATE_ALLOC_THRESHOLD:-1.30}"

# The hot-path benchmarks the gate protects. The regex in mean() matches
# a name exactly, so a top-level name never picks up its sub-benchmarks;
# a sub-benchmark is gated only when listed by its full name, as the
# LoadMaxArity shapes are.
BENCHES=(NewProfile10k NewProfile100k ACR100k ACR100kOne64 ACR100kRuns
         MineAll100k Learn10k Learn100k Build10k Build100k
         Generate1K Generate1KEvidenceStop Generate10k Generate100k Encode100k EncodeDistinct100k
         Decode100k ParseFormat
         ObserveIngest GenerateNDJSON GenerateBinary100k ObserveBinary10k
         MetricsHotPath SpanHotPath TraceparentParse DriftScore16k DriftWindow16k
         WindowStateAdd
         Sample NewCondSampler Posteriors
         SetDedup SetContains FreqOf100k FreqOf100kNarrow ClusterHist4096 Read100k
         ParseLineBytes LoadMaxArity/4x8nybbles LoadMaxArity/1x3nybbles)

# Serving-plane paths with a zero-allocation contract: allocs/op must be
# exactly 0, base entry or not.
ZERO_ALLOC=(Encode100k Decode100k ParseFormat ObserveIngest GenerateNDJSON
            GenerateBinary100k ObserveBinary10k MetricsHotPath SpanHotPath
            TraceparentParse SetContains ParseLineBytes Sample WindowStateAdd)

if command -v benchstat >/dev/null 2>&1; then
    echo "== benchstat base vs new (informational) =="
    benchstat "$BASE" "$NEW" || true
    echo
fi

# cpuline FILE -> the first `cpu:` line go test printed, if any.
cpuline() {
    awk -F': ' '$1 == "cpu" { print $2; exit }' "$1"
}

base_cpu=$(cpuline "$BASE")
new_cpu=$(cpuline "$NEW")
armed=1
if [ -z "$base_cpu" ] || [ "$base_cpu" != "$new_cpu" ]; then
    armed=0
    echo "NOTE: base CPU (${base_cpu:-unknown}) != this run's CPU (${new_cpu:-unknown})."
    echo "      Absolute ns/op is not comparable across hardware; the ns/op axis is"
    echo "      reporting only, not gating (the allocs/op axis still gates). Run both"
    echo "      sides on one machine (scripts/bench_pair.sh) to arm the ns/op gate."
    echo
fi

# mean FILE NAME UNIT -> mean value of the benchmark's UNIT column over
# all -count runs, empty if absent. Scans value/unit pairs so extra
# ReportMetric columns cannot shift the field positions.
mean() {
    awk -v name="$2" -v unit="$3" '
        $1 ~ ("^Benchmark" name "(-[0-9]+)?$") {
            for (i = 2; i < NF; i++) {
                if ($(i+1) == unit) { sum += $i; n++ }
            }
        }
        END { if (n) printf "%.2f", sum / n }
    ' "$1"
}

fail=0
new_names=()
echo "== bench gate: ns/op mean regression > ${THRESHOLD}x fails (cpu-matched runs) =="
for b in "${BENCHES[@]}"; do
    base=$(mean "$BASE" "$b" ns/op)
    new=$(mean "$NEW" "$b" ns/op)
    if [ -z "$new" ]; then
        if [ -n "$base" ]; then
            # Gated benchmark disappeared — that hides regressions; fail.
            echo "MISSING      $b (present in the base run, absent from this run)"
            fail=1
        else
            echo "ABSENT       $b (in neither file; is the bench command covering its package?)"
            fail=1
        fi
        continue
    fi
    if [ -z "$base" ]; then
        # Not in the base run (newly added benchmark): report only.
        echo "NEW          $b  ${new}ns/op (no base entry; informational)"
        new_names+=("$b")
        continue
    fi
    ratio=$(awk -v a="$new" -v b="$base" 'BEGIN { printf "%.3f", a / b }')
    verdict=ok
    if awk -v r="$ratio" -v t="$THRESHOLD" 'BEGIN { exit !(r > t) }'; then
        # Over the threshold: fail when armed; when the cpu mismatch
        # disarmed the gate, still LABEL it honestly (hardware noise or
        # real — a human should look) instead of printing "ok".
        if [ "$armed" -eq 1 ]; then
            verdict=REGRESSION
            fail=1
        else
            verdict='regressed?'
        fi
    fi
    printf '%-12s %-16s base=%sns/op new=%sns/op ratio=%s\n' "$verdict" "$b" "$base" "$new" "$ratio"
done

echo
echo "== alloc gate: zero-alloc benches must stay at 0 allocs/op; others mean regression > ${ALLOC_THRESHOLD}x fails =="
for b in "${BENCHES[@]}"; do
    new_allocs=$(mean "$NEW" "$b" allocs/op)
    if [ -z "$new_allocs" ]; then
        continue # absence already handled (or -benchmem missing: nothing to gate)
    fi
    is_zero=0
    for z in "${ZERO_ALLOC[@]}"; do
        [ "$b" = "$z" ] && is_zero=1
    done
    if [ "$is_zero" -eq 1 ]; then
        if awk -v a="$new_allocs" 'BEGIN { exit !(a > 0) }'; then
            echo "ALLOC-REGRESSION $b  ${new_allocs} allocs/op (contract: exactly 0)"
            fail=1
        else
            printf '%-12s %-16s 0 allocs/op (zero-alloc contract holds)\n' ok "$b"
        fi
        continue
    fi
    base_allocs=$(mean "$BASE" "$b" allocs/op)
    if [ -z "$base_allocs" ]; then
        continue # no alloc data in the base run: informational only
    fi
    if awk -v b="$base_allocs" 'BEGIN { exit !(b == 0) }'; then
        # Base at 0: any alloc is a regression (ratio is undefined).
        if awk -v a="$new_allocs" 'BEGIN { exit !(a > 0) }'; then
            echo "ALLOC-REGRESSION $b  base=0 new=${new_allocs} allocs/op"
            fail=1
        else
            printf '%-12s %-16s base=0 new=0 allocs/op\n' ok "$b"
        fi
        continue
    fi
    ratio=$(awk -v a="$new_allocs" -v b="$base_allocs" 'BEGIN { printf "%.3f", a / b }')
    verdict=ok
    if awk -v r="$ratio" -v t="$ALLOC_THRESHOLD" 'BEGIN { exit !(r > t) }'; then
        verdict=ALLOC-REGRESSION
        fail=1
    fi
    printf '%-12s %-16s base=%s new=%s allocs/op ratio=%s\n' "$verdict" "$b" "$base_allocs" "$new_allocs" "$ratio"
done

echo
# Binary-vs-NDJSON throughput summary. Both numbers come from THIS run,
# so the ratio is hardware-matched by construction and gates regardless
# of the base run's CPU match: the binary encoding's reason to exist is
# beating the text path, so it must stay at least
# BENCH_BINARY_SPEEDUP_MIN (default 2.0) times the NDJSON throughput.
# GenerateBinary100k encodes 100000 candidates per op; GenerateNDJSON
# formats one line per op.
bin_ns=$(mean "$NEW" GenerateBinary100k ns/op)
nd_ns=$(mean "$NEW" GenerateNDJSON ns/op)
if [ -n "$bin_ns" ] && [ -n "$nd_ns" ]; then
    bin_per=$(awk -v b="$bin_ns" 'BEGIN { printf "%.1f", b / 100000 }')
    speedup=$(awk -v b="$bin_per" -v n="$nd_ns" 'BEGIN { printf "%.1f", n / b }')
    min="${BENCH_BINARY_SPEEDUP_MIN:-2.0}"
    echo "SUMMARY: generate encode cost — binary ${bin_per}ns/candidate vs NDJSON ${nd_ns}ns/candidate (binary ${speedup}x faster; contract >= ${min}x)"
    if awk -v s="$speedup" -v m="$min" 'BEGIN { exit !(s < m) }'; then
        echo "THROUGHPUT-REGRESSION: binary encode fell below ${min}x the NDJSON throughput"
        fail=1
    fi
fi

if [ "${#new_names[@]}" -gt 0 ]; then
    echo "SUMMARY: ${#new_names[@]} benchmark(s) have no base entry and ran informationally: ${new_names[*]}"
fi
if [ "$armed" -eq 0 ]; then
    if [ "${BENCH_GATE_REQUIRE_MATCH:-0}" = "1" ]; then
        echo "CPU mismatch with BENCH_GATE_REQUIRE_MATCH=1: base and new ran on different machines; failing."
        exit 1
    fi
    echo "ns/op gate disarmed (CPU mismatch); allocs/op gate verdict stands: exit $fail."
fi
exit "$fail"
