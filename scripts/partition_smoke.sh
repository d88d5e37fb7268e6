#!/usr/bin/env bash
# Partitioned-home-tier smoke test: replay the same toystore script once
# through a fleet whose trusted tier is split per table group — two
# dssphome partition masters (-partition 0/-partition 1 of -partitions 2,
# toys on partition 0, the FK-joined customers/credit_card pair on
# partition 1), fronted by a dsspnode routing each statement to its
# group's master (-home with both URLs) — and once through a
# single-partition reference. The deployments must be indistinguishable:
# the partitioned fleet's invalidation-decision log and cache dump diff
# clean against the reference's. Along the way the script asserts the
# write stream really split (both masters confirmed updates) and that a
# cross-partition update left the other partition's cache entries alone.
set -euo pipefail
cd "$(dirname "$0")/.."

KEY=partition-smoke
P0_PORT=18720 P1_PORT=18721 NODE_PORT=18722
SOLO_HOME_PORT=18731 SOLO_NODE_PORT=18732
source scripts/lib.sh

# The script spans both table groups: misses and a hit on each side of
# the split, an update on each partition, and the re-misses after. Q3
# joins customers and credit_card (group 1, zip codes are strings); Q1/Q2
# and U1 are the toys group (group 0); U2 inserts a card (group 1).
replay() {
  local url=$1
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -query Q1 -params bear >/dev/null
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -query Q3 -params s:15213 >/dev/null
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -query Q2 -params 1 >/dev/null
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -query Q3 -params s:15213 >/dev/null
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -update U1 -params 1 >/dev/null
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -query Q3 -params s:15213 >/dev/null
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -update U2 -params "4,s:4111,s:15213" >/dev/null
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -query Q1 -params bear >/dev/null
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -query Q3 -params s:15213 >/dev/null
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -query Q2 -params 3 >/dev/null
}

# canonical extracts the observable state a deployment must agree on.
canonical() {
  jq -s -S '{decisions: (map(.decisions // []) | add
                         | map({UpdateTemplate, QueryTemplate, Class, Dropped}) | sort),
             dump: (map(.dump // []) | add | sort)}'
}

updates_total() {
  curl -sf "$1/v1/metrics?format=json" |
    jq '[.metrics[] | select(.name == "dssp_home_updates_total") | .value // 0] | add // 0'
}

echo "smoke: partitioned home tier (2 partition masters + node)"
"$BIN/dssphome" -app toystore -key "$KEY" -addr ":$P0_PORT" -partition 0 -partitions 2 &
"$BIN/dssphome" -app toystore -key "$KEY" -addr ":$P1_PORT" -partition 1 -partitions 2 &
wait_up "http://localhost:$P0_PORT"
wait_up "http://localhost:$P1_PORT"
"$BIN/dsspnode" -app toystore -addr ":$NODE_PORT" \
  -home "http://localhost:$P0_PORT,http://localhost:$P1_PORT" &
wait_up "http://localhost:$NODE_PORT"

replay "http://localhost:$NODE_PORT"

# The write stream must have split: U1 confirmed on partition 0's master,
# U2 on partition 1's — each exactly one update, neither on the other.
for port in "$P0_PORT" "$P1_PORT"; do
  got=$(updates_total "http://localhost:$port")
  if [ "$got" != 1 ]; then
    echo "smoke: partition master on :$port executed $got updates, want exactly 1" >&2
    exit 1
  fi
done
echo "smoke: write stream split across both partition masters (1 update each)"

curl -sf "http://localhost:$NODE_PORT/v1/decisions" | canonical >"$OUT/partitioned.json"
cleanup

echo "smoke: single-partition reference (dsspnode + dssphome)"
"$BIN/dssphome" -app toystore -key "$KEY" -addr ":$SOLO_HOME_PORT" &
wait_up "http://localhost:$SOLO_HOME_PORT"
"$BIN/dsspnode" -app toystore -addr ":$SOLO_NODE_PORT" -home "http://localhost:$SOLO_HOME_PORT" &
wait_up "http://localhost:$SOLO_NODE_PORT"
replay "http://localhost:$SOLO_NODE_PORT"
curl -sf "http://localhost:$SOLO_NODE_PORT/v1/decisions" | canonical >"$OUT/solo.json"

diff -u "$OUT/solo.json" "$OUT/partitioned.json"
echo "smoke: partitioned home tier matches single partition (decision log + cache dump)"
