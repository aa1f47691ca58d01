#!/bin/sh
# docscheck.sh — documentation consistency checks, run in CI:
#
#  1. Every CLI flag mentioned in README.md (a token like `-topk` after a
#     space, backtick or parenthesis) is actually defined by cmd/p2 or
#     cmd/p2lint.
#  2. DESIGN.md's "Contents" index matches its numbered "## N." section
#     headers exactly, both ways.
#  3. The //p2: annotation markers documented in DESIGN.md §10, the set
#     internal/analysis accepts, and the set used in the tree agree:
#     every documented marker appears in the source tree, and every
#     marker used anywhere is documented.
#  4. The non-test line count ROADMAP.md states ("Non-test Go is N
#     lines") is the one scripts/loc.sh measures — a number counts only
#     if a committed script regenerates it.
#
# Exit status is non-zero on any mismatch, printing what drifted.
set -eu
cd "$(dirname "$0")/.."

fail=0

# --- 1. README flags exist in cmd/p2 or cmd/p2lint --------------------------
# Flags defined anywhere in the CLIs: flag.FlagSet
# String/Int/Bool/Float64/Duration declarations name the flag in the
# first argument, Var declarations (used for repeatable flags like
# -fault) in the second.
defined=$(
  {
    grep -hoE 'fs\.(String|Int|Int64|Bool|Float64|Duration)\("[a-z-]+"' cmd/p2/*.go cmd/p2lint/*.go
    grep -hoE 'fs\.Var\([^,]+, "[a-z-]+"' cmd/p2/*.go
    # package flag defines -h/-help on every FlagSet implicitly.
    printf 'h\nhelp\n'
  } | sed -E 's/.*"([a-z-]+)"/\1/' | sort -u
)

# Flag-looking tokens in the README: "-name" right after start-of-line,
# whitespace, backtick or '(' — single-letter flags like -o included.
# Hyphenated prose ("top-k", "rank-all") never matches because its dash
# is preceded by a letter; list bullets "- " fail the [a-z] after the dash.
mentioned=$(grep -oE '(^|[[:space:]`(])-[a-z][a-z-]*' README.md \
  | grep -oE -- '-[a-z][a-z-]*' | sed 's/^-//' | sort -u)

for f in $mentioned; do
  if ! printf '%s\n' "$defined" | grep -qx "$f"; then
    echo "docscheck: README.md mentions flag -$f, but cmd/p2 does not define it" >&2
    fail=1
  fi
done

# --- 2. DESIGN.md contents index matches its headers ------------------------
toc=$(awk '/^## Contents/{inblock=1; next} /^## /{inblock=0} inblock && /^[0-9]+\. /' DESIGN.md)
headers=$(grep -E '^## [0-9]+\. ' DESIGN.md | sed 's/^## //')

if [ -z "$toc" ]; then
  echo "docscheck: DESIGN.md has no '## Contents' index" >&2
  fail=1
elif [ "$toc" != "$headers" ]; then
  echo "docscheck: DESIGN.md Contents index and section headers disagree:" >&2
  echo "--- Contents ---" >&2
  printf '%s\n' "$toc" >&2
  echo "--- Headers ----" >&2
  printf '%s\n' "$headers" >&2
  fail=1
fi

# --- 3. //p2: annotation markers: DESIGN.md §10 vs the tree -----------------
# Documented markers: backticked `//p2:name ...` occurrences in DESIGN.md.
documented=$(grep -oE '`//p2:[a-z-]+' DESIGN.md | sed 's|.*//p2:||' | sort -u)
# Markers the analyzers accept: the Marker constants in analysis.go.
accepted=$(grep -oE 'Marker = "[a-z-]+"' internal/analysis/analysis.go \
  | sed 's/.*"\(.*\)"/\1/' | sort -u)
# Markers used in Go sources (the annot fixture's deliberate typo lives in
# internal/analysis/testdata and is excluded along with the analyzer
# sources themselves, which name markers in prose and diagnostics).
used=$(grep -rhoE '//p2:[a-z-]+' --include='*.go' --exclude-dir=analysis . \
  | sed 's|//p2:||' | sort -u)

if [ -z "$documented" ]; then
  echo "docscheck: DESIGN.md documents no //p2: annotation markers (expected in §10)" >&2
  fail=1
fi
if [ "$documented" != "$accepted" ]; then
  echo "docscheck: DESIGN.md §10 markers and internal/analysis Marker constants disagree:" >&2
  echo "--- DESIGN.md §10 ---" >&2
  printf '%s\n' "$documented" >&2
  echo "--- analysis.go -----" >&2
  printf '%s\n' "$accepted" >&2
  fail=1
fi
for m in $documented; do
  if ! printf '%s\n' "$used" | grep -qx "$m"; then
    echo "docscheck: DESIGN.md documents marker //p2:$m, but nothing in the tree uses it" >&2
    fail=1
  fi
done
for m in $used; do
  if ! printf '%s\n' "$documented" | grep -qx "$m"; then
    echo "docscheck: marker //p2:$m is used in the tree but not documented in DESIGN.md §10" >&2
    fail=1
  fi
done

# --- 4. ROADMAP.md's non-test line count is scripts/loc.sh's ----------------
# The number may be written with thin-space digit grouping ("18 358") and
# wrap onto the next line.
stated=$(tr '\n' ' ' < ROADMAP.md | grep -oE 'Non-test Go is [0-9][0-9 ]* lines' \
  | head -n 1 | tr -cd '0-9')
measured=$(scripts/loc.sh)
if [ "$stated" != "$measured" ]; then
  echo "docscheck: ROADMAP.md says non-test Go is '$stated' lines, scripts/loc.sh measures $measured" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "docscheck: OK (README flags consistent with cmd/p2 and cmd/p2lint; DESIGN.md index matches headers; //p2: markers documented, accepted and used consistently; ROADMAP line count is scripts/loc.sh's)"
