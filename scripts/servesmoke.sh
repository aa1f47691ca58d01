#!/bin/sh
# servesmoke.sh — end-to-end smoke test of the p2 serve daemon, run in
# CI. Builds the CLI with -race, boots the daemon on an ephemeral port,
# and drives the full service contract over real HTTP:
#
#  1. a complete /plan round trip (partial=false, ranked strategies),
#  2. concurrent mixed traffic, including one deliberately-deadlined
#     rank-all request that must come back partial=true (anytime),
#  3. a repeat of request 1 that must be served from the cache, its body
#     byte-equal to request 1's once "cached" and "elapsed_ms" are masked,
#  4. /statz accounting for the cache hit,
#  5. a clean SIGTERM drain: exit status 0, drain messages logged.
#
# Any failed assertion exits non-zero with the daemon log for debugging.
set -eu
cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
DAEMON=""
cleanup() {
  [ -n "$DAEMON" ] && kill "$DAEMON" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
  echo "servesmoke: FAIL: $1" >&2
  echo "--- daemon log ---" >&2
  cat "$TMP/log" >&2 || true
  exit 1
}

# JSON field assertions via grep: the daemon pretty-prints with a
# two-space indent, so top-level scalar fields appear as  "name": value.
has() { grep -q "\"$2\": $3" "$TMP/$1" || fail "$1 lacks \"$2\": $3"; }

go build -race -o "$TMP/p2" ./cmd/p2

"$TMP/p2" serve -addr 127.0.0.1:0 -request-timeout 30s > "$TMP/log" 2>&1 &
DAEMON=$!

ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^p2 serve listening on //p' "$TMP/log")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || fail "daemon never logged its listen address"

post() { curl --silent --show-error --max-time 120 --data "$2" "http://$ADDR/plan" > "$TMP/$1"; }

# 1. Complete round trip.
post full.json '{"system": "fig2a", "axes": [16], "reduce": [0], "topk": 5}'
has full.json partial false
has full.json cached false
grep -q '"strategies"' "$TMP/full.json" || fail "full.json has no strategies"

# 2. Concurrent mixed traffic: two fresh plans, the cached repeat of
#    request 1, and a deadlined rank-all. Its analytic phase takes under
#    2s even with -race and concurrent load, while measuring all of
#    superpod:4x8's candidates takes minutes — so a 5s deadline reliably
#    lands mid-measurement, and the anytime contract owes us
#    partial=true.
post a100.json '{"system": "a100", "nodes": 4, "axes": [4, 16], "reduce": [0], "topk": 3}' &
P1=$!
post auto.json '{"system": "fig2a", "axes": [4, 4], "reduce": [0], "algo": "auto"}' &
P2=$!
post cached.json '{"system": "fig2a", "axes": [16], "reduce": [0], "topk": 5}' &
P3=$!
post partial.json '{"system": "superpod:4x8", "axes": [16, 16], "reduce": [0],
                    "measure": "rank-all", "timeout_ms": 5000}' &
P4=$!
wait "$P1" "$P2" "$P3" "$P4"

has a100.json partial false
has auto.json partial false
has cached.json cached true
has cached.json partial false
# The hit writes the stored bytes of the miss it repeats.
for f in full cached; do
  sed -e 's/"cached": [a-z]*/"cached": X/' -e 's/"elapsed_ms": [-+.0-9eE]*/"elapsed_ms": X/' \
    "$TMP/$f.json" > "$TMP/$f.masked"
done
cmp -s "$TMP/full.masked" "$TMP/cached.masked" || fail "cache-hit body differs from the miss it repeats"
has partial.json partial true

# 3. /statz accounts for the cache hit.
curl --silent --max-time 30 "http://$ADDR/statz" > "$TMP/statz.json"
grep -q '"cache_hits": 0' "$TMP/statz.json" && fail "statz reports no cache hits"

# 4. Graceful drain: SIGTERM, exit 0, drain messages.
kill -TERM "$DAEMON"
if ! wait "$DAEMON"; then
  fail "daemon exited non-zero after SIGTERM"
fi
DAEMON=""
grep -q "p2 serve draining" "$TMP/log" || fail "no drain message in the log"
grep -q "p2 serve drained" "$TMP/log" || fail "no drained message in the log"

echo "servesmoke: OK (complete, concurrent, anytime-partial, cached, statz and SIGTERM drain all verified)"
