#!/bin/sh
# loadsmoke.sh — in-process load-test smoke of the planning service, run
# in CI. Builds the CLI with -race and drives `p2 loadtest -compare-warm`:
# the same seeded mixed workload (hot/fresh/deadlined/malformed) against
# a cold and a warm-started in-process daemon, everything in one process
# so the race detector covers client and server together. Asserts:
#
#  1. both runs finish with zero unexpected errors and a clean
#     client-vs-/statz cross-check (loadtest exits non-zero otherwise),
#  2. nonzero throughput and reported tail latency,
#  3. the cold run's first hot request misses the cache, the warm run's
#     hits it — the warm-start contract.
#
# It writes no file: the repo's performance record is BENCH_plan.json,
# written by scripts/bench.sh from non-race runs.
#
# Usage:   scripts/loadsmoke.sh
set -eu
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "loadsmoke: FAIL: $1" >&2
  echo "--- loadtest report ---" >&2
  cat "$TMP/report.json" >&2 || true
  echo "--- loadtest log ---" >&2
  cat "$TMP/log" >&2 || true
  exit 1
}

go build -race -o "$TMP/p2" ./cmd/p2

# loadtest itself exits non-zero on any unexpected error or cross-check
# failure in either run — assertion 1 is its exit code.
"$TMP/p2" loadtest -requests 200 -clients 8 -seed 1 \
  -compare-warm -json > "$TMP/report.json" 2> "$TMP/log" \
  || fail "loadtest exited non-zero"

# JSON field assertions via grep: the report pretty-prints with a
# two-space indent, so scalar fields appear as "name": value.
has() { grep -q "\"$1\": $2" "$TMP/report.json" || fail "report lacks \"$1\": $2"; }

[ "$(grep -c '"unexpected_errors": 0' "$TMP/report.json")" -eq 2 ] \
  || fail "expected exactly two runs with zero unexpected errors"
[ "$(grep -c '"crosschecked": true' "$TMP/report.json")" -eq 2 ] \
  || fail "expected both runs cross-checked against /statz"
grep -q '"crosscheck_failures"' "$TMP/report.json" \
  && fail "cross-check failures in the report" || true

grep -Eq '"throughput_rps": [1-9]' "$TMP/report.json" || fail "throughput is zero"
grep -q '"p99":' "$TMP/report.json" || fail "no p99 in the report"

# Warm-start contract: cold first hot request misses, warm hits.
has first_hot_cached false
has first_hot_cached true
echo "loadsmoke: OK (200 requests x cold+warm under -race)"
