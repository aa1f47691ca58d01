#!/bin/sh
# benchpair.sh — compare a revision with the working tree, commit against
# commit on one machine in one session (EXPERIMENTS.md "Paired runs"). It
# builds REV (from `git archive REV`) and the working tree once each — the
# root package's test binary and the benchmark driver — then runs PAIRS
# alternating pairs: for seed s = 1..PAIRS, the ROWS benchmark rows and
# then each workload of WORKLOADS (`bench --workload W --seed s --seconds
# 15 --trace 0`), REV first on odd seeds and the tree first on even ones,
# each binary from its own source tree.
#
# For every row × unit and workload × end-to-end metric it prints each
# side's median [Q1, Q3], the ratio tree/REV of the medians, the tree's
# wins (pairs where it is better, by BENCHMARK.json's direction; rows are
# lower-is-better), and whether the medians are further apart than REV's
# interquartile range. It fails when a driver run is not correct or has
# failed ops, and when a deterministic metric differs within a pair: a
# row's work counters (units other than ns/op, B/op and allocs/op) and the
# end-to-end metrics whose BENCHMARK.json bound is below 1e-6 (the
# planner's model output). Every exit after both builds, a failed run or
# comparison included, prints scripts/textalign.sh's table for the two
# bench binaries it built (hot-loop and refKernel cache-line offsets, which
# move timings by several percent) and keeps the exit status; a failed
# build has no binary to read, so it prints none.
#
# Usage:   scripts/benchpair.sh REV
# Env:     PAIRS      pair count (default 10)
#          ROWS       -bench regexp of root-package rows (default the
#                     netsim rows and BenchmarkPlanRankAll); empty runs none
#          WORKLOADS  space-separated workloads (default all five); empty
#                     runs none
#          SMOKE      if non-empty: one pair, rows at -benchtime 1x and
#                     --smoke workloads — a check that the tooling runs
# The default form takes about 28 minutes on 2 vCPU; run nothing else
# meanwhile.
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

# one SIDE SEED: run the rows and every workload for one side of one pair,
# prefixing each result line with "SIDE SEED" (and the workload).
one() {
  src=.
  [ "$1" = old ] && src="$TMP/src"
  if [ -n "$ROWS" ]; then
    (cd "$src" && "$TMP/$1/p2.test" -test.run XXX -test.bench "$ROWS" -test.benchmem \
      -test.benchtime "$BENCHTIME") > "$TMP/run" || { tail -n 20 "$TMP/run" >&2; exit 1; }
    grep '^Benchmark' "$TMP/run" | sed "s/^/$1 $2 /" >> "$TMP/out"
  fi
  for w in $WORKLOADS; do
    (cd "$src" && "$TMP/$1/bench" --workload "$w" --seed "$2" $RUN --trace 0) > "$TMP/run" ||
      { tail -n 20 "$TMP/run" >&2; exit 1; }
    tail -n 1 "$TMP/run" | sed "s/^/$1 $2 $w /" >> "$TMP/out"
  done
}

: > "$TMP/out"
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

# BENCHMARK.json gives each end-to-end metric's direction and bound; then
# each result line is "SIDE SEED ROW N V UNIT V UNIT ..." or
# "SIDE SEED WORKLOAD {json}".
awk -v rev="$(git rev-parse --short "$1")" -v pairs="$PAIRS" '
function quantile(n, p,   h, j) {
  h = p * (n + 1)
  if (h < 1) h = 1
  if (h > n) h = n
  j = int(h)
  return j == n ? s[n] : s[j] + (h - j) * (s[j + 1] - s[j])
}
# stats SIDE KEY: sort the side`s samples of key into s and set med, q1, q3.
function stats(side, key,   i, j, n, t) {
  n = 0
  for (i = 1; i <= pairs; i++) if ((side, key, i) in val) s[++n] = val[side, key, i] + 0
  for (i = 2; i <= n; i++) for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
  med = quantile(n, 0.5); q1 = quantile(n, 0.25); q3 = quantile(n, 0.75)
}
function add(side, seed, key, v) {
  if (!(key in seen)) { seen[key] = 1; keys[++nkeys] = key }
  val[side, key, seed] = v
}
FNR == NR {
  if ($1 == "\"name\":") { name = $2; gsub(/[",]/, "", name) }
  if ($1 == "\"better\":" && $2 ~ /higher/) higher[name] = 1
  if ($1 == "\"bound\":" && $2 + 0 < 1e-6) det[name] = 1
  next
}
$3 ~ /^Benchmark/ {
  row = $3; sub(/-[0-9]+$/, "", row)
  for (i = 5; i < NF; i += 2) {
    key = row " " $(i + 1)
    add($1, $2, key, $i)
    if ($(i + 1) != "ns/op" && $(i + 1) != "B/op" && $(i + 1) != "allocs/op") det[key] = 1
  }
  next
}
{
  if ($4 !~ /"correct":true/ || $4 !~ /"failed":0,/) {
    print "FAIL " $1 " seed " $2 " " $3 ": " $4; bad++
  }
  rest = $4
  while (match(rest, /"[a-z0-9_]+":\{"value":[^,}]+/)) {
    m = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
    name = m; sub(/^"/, "", name); sub(/".*/, "", name)
    v = m; sub(/.*"value":/, "", v)
    add($1, $2, $3 " " name, v)
    if (name in det) det[$3 " " name] = 1
    if (name in higher) higher[$3 " " name] = 1
  }
}
END {
  printf "%-44s %-40s %-40s %7s %5s %4s\n", "row/metric", rev " median [Q1, Q3]", "tree median [Q1, Q3]", "ratio", "wins", "gap"
  for (k = 1; k <= nkeys; k++) {
    key = keys[k]
    wins = 0
    for (i = 1; i <= pairs; i++) {
      o = val["old", key, i]; n = val["new", key, i]
      if (key in det && o != n) { print "MISMATCH " key " seed " i ": " rev " " o ", tree " n; bad++ }
      if (key in higher ? n + 0 > o + 0 : n + 0 < o + 0) wins++
    }
    stats("old", key); om = med; oq1 = q1; oq3 = q3
    stats("new", key)
    gap = (med - om > oq3 - oq1 || om - med > oq3 - oq1) ? "yes" : "no"
    if (key in det) { wins = "det"; gap = "-" } else wins = wins "/" pairs
    printf "%-44s %-40s %-40s %7.4f %5s %4s\n", key, sprintf("%.6g [%.6g, %.6g]", om, oq1, oq3),
      sprintf("%.6g [%.6g, %.6g]", med, q1, q3), om == 0 ? 1 : med / om, wins, gap
  }
  if (bad) { print "benchpair.sh: " bad " failed run(s) or deterministic mismatch(es)"; exit 1 }
}' BENCHMARK.json "$TMP/out"
