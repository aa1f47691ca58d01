#!/bin/sh
# bench.sh — run the planning-engine benchmark suite and snapshot it into
# BENCH_plan.json (ns/op, B/op, allocs/op, plus the engine's memoization
# and bound-pruning counters) for before/after comparison.
#
# Usage:   scripts/bench.sh [output.json]
# Env:     BENCHTIME   go test -benchtime value (default 3x; CI uses 1x)
#          BENCHNOTE   free-form note recorded in the snapshot
#
# The target file's existing "baseline" section is preserved across runs
# (the committed BENCH_plan.json carries the pre-optimization numbers);
# only "current" is rewritten.
set -eu
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_plan.json}"
BENCHTIME="${BENCHTIME:-3x}"
BENCHNOTE="${BENCHNOTE:-}"

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

go test -run XXX \
  -bench 'BenchmarkPlanSuperPod2x4|BenchmarkPlanSuperPod3x4|BenchmarkPlanSuperPod3x4Degraded|BenchmarkPlanSuperPod4x8|BenchmarkPlanSuperPod16x32|BenchmarkPlanJointEngine|BenchmarkPlanFreshBytesWarm|BenchmarkSynthesize/|BenchmarkCostEstimate|BenchmarkLower$|BenchmarkBind$|BenchmarkNetsimMeasure|BenchmarkNetsimConcurrent' \
  -benchmem -benchtime "$BENCHTIME" . | tee "$TMP"

go run ./scripts/benchjson -o "$OUT" -benchtime "$BENCHTIME" -note "$BENCHNOTE" < "$TMP"
echo "bench.sh: wrote $OUT"
