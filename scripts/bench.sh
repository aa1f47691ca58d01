#!/bin/sh
# bench.sh — regenerate the repo's performance record, BENCH_plan.json.
# Runs the tracked `go test` layer rows ten times (-count 10) and the five
# BENCHMARK.json workloads as the benchmark driver runs them, once per
# seed 1..10 (bench/baseline.json's seeds), then has scripts/benchjson
# write each row's and each workload metric's median and spread into
# "current", next to the commit, Go version, GOMAXPROCS and CPU model.
# The file's "baseline" is kept. Takes about 22 minutes on 2 vCPU.
#
# Usage:   scripts/bench.sh [output.json]
# Env:     SMOKE   if non-empty: one sample of everything, rows at
#                  -benchtime 1x and the driver's --smoke workloads — a
#                  check that the tooling runs, not a measurement
#          CHECK   if non-empty: write nothing; run the root package's
#                  tracked rows once at -benchtime 1x and fail when a
#                  row's work counters (placements, pruned placements,
#                  synthesis runs, candidates, pruned programs; explored
#                  and programs; netsim events) differ from the
#                  record's "current"; timings
#                  and allocs/op are printed as advice only
set -eu
cd "$(dirname "$0")/.."

# The root package's tracked rows; the Plan*, Synthesize/* and Netsim*
# ones report work counters.
ROWS='BenchmarkPlanSuperPod2x4|BenchmarkPlanSuperPod3x4|BenchmarkPlanSuperPod3x4Degraded|BenchmarkPlanSuperPod4x8|BenchmarkPlanSuperPod16x32|BenchmarkPlanJointEngine|BenchmarkPlanFreshBytesWarm|BenchmarkSynthesize/|BenchmarkCostEstimate|BenchmarkLower$|BenchmarkBind$|BenchmarkNetsimMeasure|BenchmarkNetsimConcurrent|BenchmarkPlanRankAll|BenchmarkRoute$'

OUT="${1:-BENCH_plan.json}"
COUNT=10
BENCHTIME=1s
RUN="--seconds 15"
if [ -n "${SMOKE:-}" ]; then
  COUNT=1 BENCHTIME=1x RUN=--smoke
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# collect appends a command's output to the writer's input; the output
# lives only in $TMP, so a failing command's tail is shown before exiting.
collect() {
  "$@" >> "$TMP/out" || { tail -n 20 "$TMP/out" >&2; exit 1; }
}

if [ -n "${CHECK:-}" ]; then
  : > "$TMP/out"
  collect go test -run XXX -bench "$ROWS" -benchmem -benchtime 1x .
  go run ./scripts/benchjson -check "$OUT" < "$TMP/out"
  exit
fi

echo "commit: $(git describe --always --dirty 2>/dev/null || echo unknown)" > "$TMP/out"
echo "bench.sh: go test rows, -count $COUNT -benchtime $BENCHTIME" >&2
collect go test -run XXX -bench "$ROWS" \
  -benchmem -benchtime "$BENCHTIME" -count "$COUNT" .
collect go test -run XXX -bench 'BenchmarkPlacementBound$' \
  -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/plan
collect go test -run XXX -bench 'BenchmarkServeHit$' \
  -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/serve

go build -o "$TMP/bench" ./bench
for seed in $(seq 1 "$COUNT"); do
  for w in cold_topk cold_full measured serve_fresh serve_hot; do
    echo "bench.sh: $w seed $seed" >&2
    collect "$TMP/bench" --workload "$w" --seed "$seed" $RUN --trace 0
  done
done

go run ./scripts/benchjson -o "$OUT" < "$TMP/out"
echo "bench.sh: wrote $OUT" >&2
