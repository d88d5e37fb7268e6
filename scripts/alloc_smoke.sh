#!/usr/bin/env bash
# Alloc-regression gate: run the hot-path micro-benchmarks with -benchmem
# and fail if any benchmark's steady-state allocs/op — or, for the rows
# under "byte_budgets", B/op, and for those under "ns_budgets", ns/op —
# exceeds its budget in BENCH_allocs.json.
# Budgets carry headroom over the measured baseline so a noisy run does not
# flap, but sit an order of magnitude below the pre-pooling numbers — a
# pooling regression (a dropped sync.Pool, a reintroduced per-entry parse)
# trips the gate immediately.
#
# Runs without the race detector on purpose: -race defeats sync.Pool
# reuse, which would make every allocation count meaningless.
set -euo pipefail
cd "$(dirname "$0")/.."

command -v jq >/dev/null || { echo "alloc_smoke: jq is required" >&2; exit 1; }

# Which benchmarks to run, and in which packages, comes from the JSON: every
# row under "measured" names its package, so a new gated benchmark is a new
# row (plus its budget), not an edit here. Sub-benchmarks (Name/size=8) run
# with their parent. -benchtime 200x is enough for the pools to reach steady
# state (the Go bench framework warms each benchmark with shorter runs
# first) while keeping the smoke fast.
out=""
while IFS=$'\t' read -r pkg pattern; do
    out+=$(go test -run '^$' -bench "$pattern" -benchmem -benchtime 200x "$pkg")
    out+=$'\n'
done < <(jq -r '.measured | to_entries | group_by(.value.package)[]
                | [.[0].value.package, "^(" + ([.[].key | split("/")[0]] | unique | join("|")) + ")$"]
                | @tsv' BENCH_allocs.json)
printf '%s\n' "$out"

# measured NAME UNIT prints the number before UNIT ("allocs/op", "B/op") on
# NAME's result line, which looks like:
#   BenchmarkSeal  200  664 ns/op  216 MB/s  160 B/op  1 allocs/op
# Names may gain a -<procs> suffix under GOMAXPROCS>1; match either.
measured() {
    printf '%s\n' "$out" | awk -v n="$1" -v u="$2" '
        $1 == n || index($1, n "-") == 1 {
            for (i = 2; i <= NF; i++) if ($i == u) { print $(i-1); exit }
        }'
}

# gate KEY UNIT holds every benchmark named under KEY in the JSON to its
# budget in UNIT. "budgets" bounds allocs/op; "byte_budgets" (optional: a
# row belongs there when what it guards is the size of what is allocated,
# not the count) bounds B/op; "ns_budgets" (optional: a row belongs there
# when what it guards is an order of growth — a walk that must not become
# linear in a bucket again — so its budget sits far above the measured
# time and far below the old one) bounds ns/op, which may be fractional.
fail=0
gate() {
    local key=$1 unit=$2 name budget got
    while IFS=$'\t' read -r name budget; do
        got=$(measured "$name" "$unit")
        if [[ -z "$got" ]]; then
            echo "alloc_smoke: FAIL $name: benchmark did not run" >&2
            fail=1
        elif awk -v g="$got" -v b="$budget" 'BEGIN { exit !(g > b) }'; then
            echo "alloc_smoke: FAIL $name: $got $unit > budget $budget" >&2
            fail=1
        else
            echo "alloc_smoke: ok   $name: $got $unit <= budget $budget"
        fi
    done < <(jq -r --arg k "$key" '.[$k] // {} | to_entries[] | "\(.key)\t\(.value)"' BENCH_allocs.json)
}
gate budgets allocs/op
gate byte_budgets B/op
gate ns_budgets ns/op

exit "$fail"
