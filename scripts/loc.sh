#!/usr/bin/env bash
# Size of the tree in lines of Go, from the files git tracks: non-test code
# outside bench/ (what ROADMAP aim 2's "negative line count" counts), the
# tests beside it, and bench/, which is its own module — and how many
# command-line flags the binaries under cmd/ declare. CI prints both on
# every run, and fails when the flags outnumber flag_ceiling: a change that
# adds a flag raises the ceiling in its own diff and says what it deletes.
set -euo pipefail

flag_ceiling=29
cd "$(dirname "$0")/.."

count() { # lines of the tracked .go files on stdin
  xargs -r cat | wc -l
}
code=$(git ls-files '*.go' | grep -v '^bench/' | grep -v '_test\.go$' | count)
tests=$(git ls-files '*.go' | grep -v '^bench/' | grep '_test\.go$' | count)
bench=$(git ls-files 'bench/*.go' | count)
printf 'loc: %d non-test Go outside bench/, %d test, %d bench/\n' "$code" "$tests" "$bench"
flags=$(git ls-files 'cmd/*.go' | grep -v '_test\.go$' | xargs -r cat |
  grep -cE '\bflag\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Var|Func|BoolFunc|TextVar)\(' || true)
printf 'flags: %d declared under cmd/ (ceiling %d)\n' "$flags" "$flag_ceiling"
if ((flags > flag_ceiling)); then
  echo "loc: cmd/ declares $flags flags, over the ceiling of $flag_ceiling" >&2
  exit 1
fi
