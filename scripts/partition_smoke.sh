#!/usr/bin/env bash
# Partitioned-home-tier smoke test: replay the same toystore script once
# through a fleet whose trusted tier is split per table group — two
# dssphome partition masters (toys on partition 0, the FK-joined
# customers/credit_card pair on partition 1), each streaming its confirmed
# updates to one read replica, fronted by a dsspnode routing each statement
# to its group's master and spreading misses to that master's replica;
# one topology file describes it all — and once through a single-partition
# reference. The deployments must be indistinguishable: the partitioned
# fleet's invalidation-decision log and cache dump diff clean against the
# reference's. Along the way the script asserts the write stream really
# split (both masters confirmed updates), that each replica reached its
# own partition's confirmed sequence, and that a cross-partition update
# left the other partition's cache entries alone.
set -euo pipefail
cd "$(dirname "$0")/.."

KEY=partition-smoke
P0_PORT=18720 P1_PORT=18721 NODE_PORT=18722 R0_PORT=18723 R1_PORT=18724
SOLO_HOME_PORT=18731 SOLO_NODE_PORT=18732
source scripts/lib.sh

# The script spans both table groups: misses and a hit on each side of
# the split, an update on each partition, and the re-misses after. Q3
# joins customers and credit_card (group 1, zip codes are strings); Q1/Q2
# and U1 are the toys group (group 0); U2 inserts a card (group 1).
replay() {
  local topology=$1
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q1 -params bear >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q3 -params s:15213 >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q2 -params 1 >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q3 -params s:15213 >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -update U1 -params 1 >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q3 -params s:15213 >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -update U2 -params "4,s:4111,s:15213" >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q1 -params bear >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q3 -params s:15213 >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q2 -params 3 >/dev/null
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

echo "smoke: partitioned home tier (2 partition masters, a replica each + node)"
FLEET=$OUT/fleet_topology.json
cat >"$FLEET" <<JSON
{"app": "toystore", "seed": 1,
 "home": [{"primary": "$(url $P0_PORT)", "replicas": ["$(url $R0_PORT)"]},
          {"primary": "$(url $P1_PORT)", "replicas": ["$(url $R1_PORT)"]}],
 "nodes": ["$(url $NODE_PORT)"]}
JSON
for port in "$P0_PORT" "$R0_PORT" "$P1_PORT" "$R1_PORT"; do
  "$BIN/dssphome" -topology "$FLEET" -as "$(url "$port")" -key "$KEY" &
done
for port in "$P0_PORT" "$R0_PORT" "$P1_PORT" "$R1_PORT"; do
  wait_up "$(url "$port")"
done
"$BIN/dsspnode" -topology "$FLEET" -as "$(url $NODE_PORT)" &
wait_up "$(url $NODE_PORT)"

replay "$FLEET"

# The write stream must have split: U1 confirmed on partition 0's master,
# U2 on partition 1's — each exactly one update, neither on the other.
for port in "$P0_PORT" "$P1_PORT"; do
  got=$(updates_total "$(url "$port")")
  if [ "$got" != 1 ]; then
    echo "smoke: partition master on :$port executed $got updates, want exactly 1" >&2
    exit 1
  fi
done
echo "smoke: write stream split across both partition masters (1 update each)"

# Each replica must reach its own partition's confirmed sequence: the
# primary streams to the replica its topology entry lists, and no other.
for pair in "$P0_PORT:$R0_PORT" "$P1_PORT:$R1_PORT"; do
  primary=${pair%%:*} replica=${pair##*:}
  confirmed=$(curl -sf "$(url "$primary")/v1/replicas" | jq -r .confirmed)
  for _ in $(seq 1 100); do
    applied=$(curl -sf "$(url "$replica")/v1/replica/status" | jq -r .applied)
    [ "$applied" = "$confirmed" ] && break
    sleep 0.1
  done
  if [ "$applied" != "$confirmed" ] || [ "$confirmed" != 1 ]; then
    echo "smoke: replica on :$replica applied $applied of its primary's $confirmed confirmed updates, want 1 of 1" >&2
    exit 1
  fi
done
echo "smoke: each partition's replica applied its primary's confirmed stream"

curl -sf "$(url $NODE_PORT)/v1/decisions" | canonical >"$OUT/partitioned.json"
cleanup

echo "smoke: single-partition reference (dsspnode + dssphome)"
solo_topology "$OUT/solo_topology.json" "$SOLO_HOME_PORT" "$SOLO_NODE_PORT"
"$BIN/dssphome" -topology "$OUT/solo_topology.json" -as "$(url $SOLO_HOME_PORT)" -key "$KEY" &
wait_up "$(url $SOLO_HOME_PORT)"
"$BIN/dsspnode" -topology "$OUT/solo_topology.json" -as "$(url $SOLO_NODE_PORT)" &
wait_up "$(url $SOLO_NODE_PORT)"
replay "$OUT/solo_topology.json"
curl -sf "$(url $SOLO_NODE_PORT)/v1/decisions" | canonical >"$OUT/solo.json"

diff -u "$OUT/solo.json" "$OUT/partitioned.json"
echo "smoke: partitioned home tier matches single partition (decision log + cache dump)"
