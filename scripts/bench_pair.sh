#!/usr/bin/env bash
# bench_pair.sh — runs the hot-path benchmarks on a base checkout and on
# this one, so scripts/check_bench.sh compares two runs made on the same
# machine at the same time.
#
# Usage: bench_pair.sh <base-dir> <base-out.txt> <new-out.txt>
#
# <base-dir> is a checkout of the commit to compare against; the bench job
# of .github/workflows/ci.yml adds a git worktree of the pull request's
# base (or of the commit a push moved the branch from) and runs
#
#   scripts/bench_pair.sh "$RUNNER_TEMP/bench-base" bench_base.txt bench_new.txt
#
# The two sides alternate, one -count 1 pass each, three times, so a slow
# stretch of the host hits both alike. Packages the base does not have
# are skipped there; check_bench.sh reports their benchmarks as NEW. A
# base pass that fails is reported and leaves its benchmarks missing from
# the base file, which check_bench.sh also treats as NEW.
#
# -cpu 2 fixes GOMAXPROCS, so per-shard allocs/op of NewProfile*,
# Generate* and Learn* do not depend on the runner's core count.
set -euo pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 <base-dir> <base-out.txt> <new-out.txt>" >&2
    exit 2
fi
BASE_DIR="$1"
BASE_OUT=$(realpath -m "$2")
NEW_OUT=$(realpath -m "$3")

# Covers the gated names in scripts/check_bench.sh plus the informational
# worker-scaling and reference-comparison sub-benchmarks, Split64
# (internal/stats), ClusterND (internal/dbscan), and DecodeNDJSON1k and
# GenerateLoopback (pkg/client).
PKGS=(./internal/entropy ./internal/mra ./internal/mining
      ./internal/bayes ./internal/core ./internal/drift
      ./internal/ip6 ./internal/serve ./internal/obs
      ./internal/obs/trace ./internal/wire ./internal/stats
      ./internal/dbscan ./internal/dataset ./internal/plan
      ./internal/synth ./pkg/client)

# bench DIR: one pass over the packages DIR has.
bench() {
    local pkgs=()
    for p in "${PKGS[@]}"; do
        [ -d "$1/$p" ] && pkgs+=("$p")
    done
    (cd "$1" && go test -bench . -benchmem -run '^$' -count 1 -cpu 2 "${pkgs[@]}")
}

: >"$BASE_OUT"
: >"$NEW_OUT"
for pass in 1 2 3; do
    echo "== pass $pass: base ==" >&2
    if ! bench "$BASE_DIR" | tee -a "$BASE_OUT"; then
        echo "WARNING: the base benchmark pass failed; its missing benchmarks gate as NEW" >&2
    fi
    echo "== pass $pass: new ==" >&2
    bench . | tee -a "$NEW_OUT"
done
