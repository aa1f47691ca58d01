#!/bin/sh
# docscheck.sh — documentation consistency checks, run in CI:
#
#  1. Every CLI flag mentioned in README.md (a token like `-topk` after a
#     space, backtick or parenthesis) is actually defined by cmd/p2 (some
#     `p2 <cmd> -h` lists it) or cmd/p2lint.
#  2. DESIGN.md's "Contents" index matches its numbered "## N." section
#     headers exactly, both ways.
#  3. The //p2: annotation markers documented in DESIGN.md §10, the set
#     internal/analysis accepts, and the set used in the tree agree:
#     every documented marker appears in the source tree, and every
#     marker used anywhere is documented.
#  4. The non-test line count ROADMAP.md states ("Non-test Go is N
#     lines") is the one scripts/loc.sh measures — a number counts only
#     if a committed script regenerates it.
#  5. The analyzers p2lint runs (internal/analysis All, as `p2lint -h`
#     lists them), the rows of DESIGN.md §10's analyzer table and the
#     list in cmd/p2lint's doc comment are the same set.
#  6. Each row of README.md's "Common flags" table names exactly the
#     commands whose `p2 <cmd> -h` lists the row's flag(s).
#
# Exit status is non-zero on any mismatch, printing what drifted.
set -eu
cd "$(dirname "$0")/.."

fail=0

# Checks 1 and 6 read the flags each p2 command registers from its -h.
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
go build -o "$TMP/p2" ./cmd/p2
commands=$("$TMP/p2" help | awk '/^  [a-z0-9]+  / {print $1}')
for c in $commands; do
  "$TMP/p2" "$c" -h 2>&1 | grep -oE '^  -[a-z-]+' | sed 's/^  -//' > "$TMP/$c.flags"
done

# --- 1. README flags exist in cmd/p2 or cmd/p2lint --------------------------
# Flags defined anywhere in the CLIs: every p2 command's -h, plus
# cmd/p2lint's flag.FlagSet String/Bool declarations.
defined=$(
  {
    for c in $commands; do cat "$TMP/$c.flags"; done
    grep -hoE 'fs\.(String|Bool)\("[a-z-]+"' cmd/p2lint/*.go | sed -E 's/.*"([a-z-]+)"/\1/'
    # package flag defines -h/-help on every FlagSet implicitly.
    printf 'h\nhelp\n'
  } | sort -u
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

# --- 5. Analyzer names: analysis.All vs DESIGN.md §10 vs cmd/p2lint's doc ---
# Registered: the "Analyzers:" listing `p2lint -h` prints from analysis.All.
registered=$(go run ./cmd/p2lint -h 2>&1 | awk '/^Analyzers:/ {on = 1; next} on && NF {print $1}' | sort)
# Tabled: the backticked first cell of each row of DESIGN.md §10's table.
tabled=$(awk '/^## 10\./ {on = 1; next} /^## / {on = 0} on' DESIGN.md \
  | grep -oE '^\| `[a-z]+` \|' | tr -d '|` ' | sort)
# Listed: the "//<tab>name  summary" lines above "// Usage:" in cmd/p2lint.
listed=$(awk '/^\/\/ Usage:/ {exit} /^\/\/\t[a-z]+ / {print $2}' cmd/p2lint/main.go | sort)

if [ -z "$registered" ]; then
  echo "docscheck: 'p2lint -h' listed no analyzers" >&2
  fail=1
fi
same_analyzers() { # where names
  if [ "$2" != "$registered" ]; then
    echo "docscheck: analysis.All and the $1 name different analyzers:" >&2
    echo "--- analysis.All ---" >&2
    printf '%s\n' "$registered" >&2
    echo "--- $1 ---" >&2
    printf '%s\n' "$2" >&2
    fail=1
  fi
}
same_analyzers "DESIGN.md §10 table" "$tabled"
same_analyzers "cmd/p2lint doc comment" "$listed"

# --- 6. README "Common flags" rows name the commands that register the flag --
# Row shape: | `-a`, `-b` | cmd, cmd, ... | meaning |
rows=$(awk '/^### Common flags/ {on = 1; next} /^#/ {on = 0} on && /^\| `-/' README.md)
if [ -z "$rows" ]; then
  echo "docscheck: README.md has no Common flags table rows" >&2
  fail=1
fi
printf '%s\n' "$rows" | while IFS='|' read -r _ flagcell cmdcell _; do
  stated=$(printf '%s\n' "$cmdcell" | tr ',' '\n' | tr -d ' ' | grep . | sort)
  for f in $(printf '%s\n' "$flagcell" | grep -oE -- '-[a-z][a-z-]*' | sed 's/^-//'); do
    registered=$(for c in $commands; do grep -qx "$f" "$TMP/$c.flags" && echo "$c"; done | sort)
    if [ "$stated" != "$registered" ]; then
      echo "docscheck: README.md says -$f applies to {$(echo $stated)}, but p2 -h lists it for {$(echo $registered)}" >&2
      echo 1 > "$TMP/fail6"
    fi
  done
done
[ -f "$TMP/fail6" ] && fail=1

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "docscheck: OK (README flags consistent with cmd/p2 and cmd/p2lint; DESIGN.md index matches headers; //p2: markers documented, accepted and used consistently; ROADMAP line count is scripts/loc.sh's; analysis.All, DESIGN.md §10 and cmd/p2lint list the same analyzers; README Common flags rows match p2 <cmd> -h)"
