#!/bin/sh
# textalign.sh — print where the linker put the planner's hot loops and the
# bench's calibration kernel (main.refKernel, which sets the machine
# factor): the address and the address mod 64 (the offset inside a 64-byte
# cache line) of nine symbols in the bench binary, read from
# `go tool nm -size -sort address`. Timings on a small box move by several
# percent when a hot loop slides across a cache-line boundary
# (EXPERIMENTS.md "One event loop", "One schedule expansion"), so a
# before/after comparison prints this next to its numbers instead of
# arguing parity by hand. Print-only: it never fails on a mismatch.
#
# Usage: scripts/textalign.sh [rev]
#   without rev: the checked-out tree's values
#   with rev:    rev's values (built from `git archive rev`) beside the
#                checked-out tree's (HEAD plus any uncommitted edits)
set -eu
cd "$(dirname "$0")/.."

syms='p2/internal/topology.(*System).Route
p2/internal/cost.(*Scorer).addEdge
p2/internal/cost.(*Scorer).counted
p2/internal/cost.(*Scorer).StepTimeAlgo
p2/internal/plan.(*matrixScorer).score
p2/internal/netsim.(*Simulator).MeasureConcurrentSpecs
p2/internal/synth.(*synthesizer).expand
p2/internal/synth.(*synthesizer).applyOnce
main.refKernel'

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# offsets DIR OUT: build DIR's bench binary and write one
# "address mod64" line per hot symbol ("- -" when the symbol is absent).
offsets() {
  (cd "$1" && go build -o "$tmp/bench.bin" ./bench)
  go tool nm -size -sort address "$tmp/bench.bin" > "$tmp/nm.txt"
  printf '%s\n' "$syms" | while read -r s; do
    addr=$(awk -v s="$s" '$4 == s { print $1; exit }' "$tmp/nm.txt")
    if [ -n "$addr" ]; then
      echo "0x$addr $((0x$addr % 64))"
    else
      echo "- -"
    fi
  done > "$2"
}

offsets . "$tmp/head"
if [ $# -eq 0 ]; then
  printf '%-58s %10s %5s\n' symbol HEAD mod64
  printf '%s\n' "$syms" | paste -d ' ' - "$tmp/head" |
    awk '{ printf "%-58s %10s %5s\n", $1, $2, $3 }'
  exit 0
fi

mkdir "$tmp/rev"
git archive "$1" | tar -x -C "$tmp/rev"
offsets "$tmp/rev" "$tmp/old"
printf '%-58s %10s %5s %10s %5s\n' symbol "$(git rev-parse --short "$1")" mod64 HEAD mod64
printf '%s\n' "$syms" | paste -d ' ' - "$tmp/old" "$tmp/head" |
  awk '{ printf "%-58s %10s %5s %10s %5s\n", $1, $2, $3, $4, $5 }'
