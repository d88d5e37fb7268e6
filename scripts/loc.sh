#!/usr/bin/env bash
# Size of the tree in lines of Go, from the files git tracks: non-test code
# outside bench/ (what ROADMAP aim 2's "negative line count" counts), the
# tests beside it, and bench/, which is its own module. CI prints it on
# every run.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { # lines of the tracked .go files on stdin
  xargs -r cat | wc -l
}
code=$(git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$' | count)
tests=$(git ls-files '*.go' | grep -v '^bench/' | grep '_test\.go$' | count)
bench=$(git ls-files 'bench/*.go' | count)
printf 'loc: %d non-test Go outside bench/, %d test, %d bench/\n' "$code" "$tests" "$bench"
