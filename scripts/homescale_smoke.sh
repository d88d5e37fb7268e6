#!/usr/bin/env bash
# Distributed-home-tier smoke test: replay the same toystore script once
# through a fleet whose trusted tier is replicated — a dssphome primary
# streaming confirmed updates to the two dssphome read replicas its
# topology file lists, fronted by a dssprouter and two dsspnode processes
# spreading misses across the replicas — and once through a single-home,
# single-node reference. The deployments must be
# indistinguishable: the replicated fleet's merged invalidation-decision
# log and cache dump diff clean against the reference's. Along the way the
# script asserts the apply stream actually converged (both replicas report
# the confirmed watermark), that a replica killed and restarted catches up
# again, that replicas served misses, and that SIGTERM shuts the primary
# down gracefully (exit 0, streams drained).
set -euo pipefail
cd "$(dirname "$0")/.."

KEY=homescale-smoke
ROUTER_PORT=18700 HOME_PORT=18701 REP0_PORT=18702 REP1_PORT=18703
NODE0_PORT=18704 NODE1_PORT=18705
SOLO_HOME_PORT=18711 SOLO_NODE_PORT=18712
source scripts/lib.sh

# The parity script, split around the update so the replicated run can
# wait for the apply stream between halves: miss/store, miss/store, hit,
# then the invalidating update; afterwards the re-misses and fresh misses
# that a converged replica may serve.
replay_pre() {
  local topology=$1
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q1 -params bear >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q2 -params 1 >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q2 -params 1 >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -update U1 -params 1 >/dev/null
}
replay_post() {
  local topology=$1
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q1 -params bear >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q2 -params 5 >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q2 -params 2 >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q2 -params 3 >/dev/null
}

echo "smoke: replicated home tier (primary + 2 replicas + router + 2 nodes)"
FLEET=$OUT/fleet_topology.json
cat >"$FLEET" <<JSON
{"app": "toystore", "seed": 1,
 "home": [{"primary": "$(url $HOME_PORT)", "replicas": ["$(url $REP0_PORT)", "$(url $REP1_PORT)"]}],
 "nodes": ["$(url $NODE0_PORT)", "$(url $NODE1_PORT)"],
 "router": "$(url $ROUTER_PORT)"}
JSON
"$BIN/dssphome" -topology "$FLEET" -as "$(url $HOME_PORT)" -key "$KEY" &
PRIMARY_PID=$!
wait_up "$(url $HOME_PORT)"
start_rep0() {
  "$BIN/dssphome" -topology "$FLEET" -as "$(url $REP0_PORT)" -key "$KEY" &
  REP0_PID=$!
}
start_rep0
"$BIN/dssphome" -topology "$FLEET" -as "$(url $REP1_PORT)" -key "$KEY" &
wait_up "$(url $REP0_PORT)"
wait_up "$(url $REP1_PORT)"
"$BIN/dsspnode" -topology "$FLEET" -as "$(url $NODE0_PORT)" &
"$BIN/dsspnode" -topology "$FLEET" -as "$(url $NODE1_PORT)" &
wait_up "$(url $NODE0_PORT)"
wait_up "$(url $NODE1_PORT)"
"$BIN/dssprouter" -topology "$FLEET" &
wait_up "$(url $ROUTER_PORT)"

replay_pre "$FLEET"

# The update confirmed at the primary; wait for the stream to land it on
# both replicas.
for port in "$REP0_PORT" "$REP1_PORT"; do
  for _ in $(seq 1 100); do
    applied=$(curl -sf "http://localhost:$port/v1/replica/status" | jq -r .applied)
    [ "$applied" = 1 ] && break
    sleep 0.1
  done
  if [ "$applied" != 1 ]; then
    echo "smoke: replica on :$port applied $applied, want 1 (stream never converged)" >&2
    exit 1
  fi
done
echo "smoke: confirmed-update stream converged on both replicas"

# A replica that crashes comes back empty, from the seed state, and says
# hello to its primary: the primary must resend it the stream from its own
# watermark until it holds every confirmed update.
kill -9 "$REP0_PID"
wait "$REP0_PID" 2>/dev/null || true
start_rep0
wait_up "http://localhost:$REP0_PORT"
confirmed=$(curl -sf "http://localhost:$HOME_PORT/v1/replicas" | jq -r .confirmed)
for _ in $(seq 1 100); do
  applied=$(curl -sf "http://localhost:$REP0_PORT/v1/replica/status" | jq -r .applied)
  [ "$applied" = "$confirmed" ] && break
  sleep 0.1
done
if [ "$applied" != "$confirmed" ]; then
  echo "smoke: restarted replica on :$REP0_PORT applied $applied, want $confirmed (stream never resent)" >&2
  exit 1
fi
echo "smoke: restarted replica caught up to the confirmed stream ($confirmed)"

replay_post "$FLEET"

# The post-update misses must have been spread to the (now fresh)
# replicas, not all bounced to the primary.
served=$(for port in "$REP0_PORT" "$REP1_PORT"; do
  curl -sf "http://localhost:$port/v1/replica/status"
done | jq -s 'map(.served) | add')
if [ "$served" -lt 1 ]; then
  echo "smoke: replicas served $served misses, want at least 1" >&2
  exit 1
fi
echo "smoke: replicas served $served misses under the staleness protocol"

curl -sf "http://localhost:$NODE0_PORT/v1/decisions" >"$OUT/node0.json"
curl -sf "http://localhost:$NODE1_PORT/v1/decisions" >"$OUT/node1.json"

# Graceful shutdown: SIGTERM the primary; it must wait out in-flight
# statements, drain the replica streams, and exit 0.
kill -TERM "$PRIMARY_PID"
if ! wait "$PRIMARY_PID"; then
  echo "smoke: primary did not shut down gracefully on SIGTERM" >&2
  exit 1
fi
echo "smoke: primary drained and exited cleanly on SIGTERM"
cleanup

# Canonical observable state: merge the fleet's logs, sort. Template
# affinity guarantees disjoint per-node logs, so the sorted merge must
# equal the sorted single-node reference exactly — replicated home tier
# and all.
jq -s -S '{decisions: (map(.decisions // []) | add
                       | map({UpdateTemplate, QueryTemplate, Class, Dropped}) | sort),
           dump: (map(.dump // []) | add | sort)}' \
  "$OUT/node0.json" "$OUT/node1.json" >"$OUT/fleet.json"

echo "smoke: single-home reference (dsspnode + dssphome)"
solo_topology "$OUT/solo_topology.json" "$SOLO_HOME_PORT" "$SOLO_NODE_PORT"
"$BIN/dssphome" -topology "$OUT/solo_topology.json" -as "$(url $SOLO_HOME_PORT)" -key "$KEY" &
wait_up "$(url $SOLO_HOME_PORT)"
"$BIN/dsspnode" -topology "$OUT/solo_topology.json" -as "$(url $SOLO_NODE_PORT)" &
wait_up "$(url $SOLO_NODE_PORT)"
replay_pre "$OUT/solo_topology.json"
replay_post "$OUT/solo_topology.json"
curl -sf "http://localhost:$SOLO_NODE_PORT/v1/decisions" |
  jq -s -S '{decisions: (map(.decisions // []) | add
                         | map({UpdateTemplate, QueryTemplate, Class, Dropped}) | sort),
             dump: (map(.dump // []) | add | sort)}' >"$OUT/solo.json"

diff -u "$OUT/solo.json" "$OUT/fleet.json"
echo "smoke: replicated home tier matches single home (decision log + cache dump)"
