#!/bin/sh
# benchpair.sh — compare REV with the working tree on one machine in one
# session (EXPERIMENTS.md "Paired runs"): build each once, run PAIRS
# alternating pairs of the ROWS rows and WORKLOADS driver runs into one
# stream per side, and print scripts/benchjson -pair's table of the two.
# A failed run or a deterministic mismatch fails it; every exit after both
# builds prints scripts/textalign.sh's table.
#
# Usage:   scripts/benchpair.sh REV
# Env:     PAIRS      pair count (default 10)
#          ROWS       -bench regexp of root-package rows (default the
#                     netsim rows and BenchmarkPlanRankAll); empty runs none
#          WORKLOADS  workloads, space-separated (default all five; empty: none)
#          SMOKE      if non-empty: one pair, rows at -benchtime 1x and
#                     --smoke workloads — a check that the tooling runs
# The default form takes ~28 min on 2 vCPU; run nothing else meanwhile.
set -eu
cd "$(dirname "$0")/.."
if [ $# -ne 1 ]; then
  echo "usage: scripts/benchpair.sh REV" >&2
  exit 2
fi

PAIRS="${PAIRS:-10}"
ROWS="${ROWS-BenchmarkNetsimMeasure\$|BenchmarkNetsimConcurrent\$|BenchmarkPlanRankAll\$}"
WORKLOADS="${WORKLOADS-cold_topk cold_full measured serve_fresh serve_hot}"
BENCHTIME=1s
RUN="--seconds 15"
if [ -n "${SMOKE:-}" ]; then
  PAIRS=1 BENCHTIME=1x RUN=--smoke
fi

REV="$1"
TMP="$(mktemp -d)"
# finish: the EXIT trap. Print the built binaries' offsets, remove $TMP
# and exit with the status the script was leaving with.
finish() {
  status=$?
  if [ -x "$TMP/old/bench" ] && [ -x "$TMP/new/bench" ]; then
    scripts/textalign.sh "$REV" "$TMP/old/bench" "$TMP/new/bench" || true
  fi
  rm -rf "$TMP"
  exit "$status"
}
trap finish EXIT
mkdir "$TMP/src" "$TMP/old" "$TMP/new"
git archive "$1" | tar -x -C "$TMP/src"
for side in old new; do
  src=.
  [ "$side" = old ] && src="$TMP/src"
  echo "benchpair.sh: building $side" >&2
  (cd "$src" && go test -c -o "$TMP/$side/p2.test" . && go build -o "$TMP/$side/bench" ./bench)
done
go build -o "$TMP/benchjson" ./scripts/benchjson

# one SIDE SEED: run the rows and every workload for one side of one pair,
# appending their output to the side's stream.
one() {
  src=.
  [ "$1" = old ] && src="$TMP/src"
  if [ -n "$ROWS" ]; then
    (cd "$src" && "$TMP/$1/p2.test" -test.run XXX -test.bench "$ROWS" -test.benchmem \
      -test.benchtime "$BENCHTIME") >> "$TMP/$1.out" || { tail -n 20 "$TMP/$1.out" >&2; exit 1; }
  fi
  for w in $WORKLOADS; do
    (cd "$src" && "$TMP/$1/bench" --workload "$w" --seed "$2" $RUN --trace 0) >> "$TMP/$1.out" ||
      { tail -n 20 "$TMP/$1.out" >&2; exit 1; }
  done
}

touch "$TMP/old.out" "$TMP/new.out"
for seed in $(seq 1 "$PAIRS"); do
  echo "benchpair.sh: pair $seed of $PAIRS" >&2
  if [ $((seed % 2)) -eq 1 ]; then
    one old "$seed"
    one new "$seed"
  else
    one new "$seed"
    one old "$seed"
  fi
done
"$TMP/benchjson" -pair "$(git rev-parse --short "$1")" "$TMP/old.out" "$TMP/new.out"
