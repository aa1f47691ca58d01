#!/bin/sh
# loc.sh — print the non-test Go line count ROADMAP.md tracks under aim 2
# ("Non-test Go is N lines"), with exactly the command the ROADMAP quotes.
# scripts/docscheck.sh holds the two together; CI prints it after Build.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l | tr -d ' '
