#!/usr/bin/env bash
# Scale-out smoke test: replay the same toystore script once through a
# dssprouter fronting two dsspnode processes and once through a single
# node. The deployments must be indistinguishable: the fleet's merged
# invalidation-decision log and cache dump (served by /v1/decisions) diff
# clean against the single-node run's. Each deployment is one topology
# file every process reads. At the end the router and a node must drain and
# exit 0 on SIGTERM.
set -euo pipefail
cd "$(dirname "$0")/.."

KEY=scaleout-smoke
ROUTER_PORT=18600 HOME_PORT=18601 NODE0_PORT=18602 NODE1_PORT=18603
SOLO_HOME_PORT=18611 SOLO_NODE_PORT=18612
source scripts/lib.sh

# The pipeline parity script: miss/store, miss/store, hit, invalidating
# update, re-miss, miss/store.
replay() {
  local topology=$1
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q1 -params bear >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q2 -params 1 >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q2 -params 1 >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -update U1 -params 1 >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q1 -params bear >/dev/null
  "$BIN/dsspclient" -topology "$topology" -key "$KEY" -query Q2 -params 5 >/dev/null
}

echo "smoke: routed fleet (dssprouter + 2 dsspnode + dssphome)"
cat >"$OUT/fleet_topology.json" <<JSON
{"app": "toystore", "seed": 1,
 "home": [{"primary": "$(url $HOME_PORT)"}],
 "nodes": ["$(url $NODE0_PORT)", "$(url $NODE1_PORT)"],
 "router": "$(url $ROUTER_PORT)"}
JSON
"$BIN/dssphome" -topology "$OUT/fleet_topology.json" -as "$(url $HOME_PORT)" -key "$KEY" &
wait_up "$(url $HOME_PORT)"
"$BIN/dsspnode" -topology "$OUT/fleet_topology.json" -as "$(url $NODE0_PORT)" &
NODE0_PID=$!
"$BIN/dsspnode" -topology "$OUT/fleet_topology.json" -as "$(url $NODE1_PORT)" &
wait_up "$(url $NODE0_PORT)"
wait_up "$(url $NODE1_PORT)"
"$BIN/dssprouter" -topology "$OUT/fleet_topology.json" &
ROUTER_PID=$!
wait_up "$(url $ROUTER_PORT)"

replay "$OUT/fleet_topology.json"
curl -sf "http://localhost:$NODE0_PORT/v1/decisions" >"$OUT/node0.json"
curl -sf "http://localhost:$NODE1_PORT/v1/decisions" >"$OUT/node1.json"

# Fleet-wide trace: one more request, then fetch its spans back from
# every process's /v1/trace endpoint. The client logs the trace ID; the
# stitched union must carry that one ID through the router's route span
# (its only one), the owning node's cache probe, and the home server's
# execution.
echo "smoke: stitching one request's trace across router, nodes, and home"
TRACE=$("$BIN/dsspclient" -topology "$OUT/fleet_topology.json" -key "$KEY" \
  -query Q2 -params 3 2>&1 >/dev/null | grep -o 'trace=[^ ]*' | head -1 | cut -d= -f2)
[ -n "$TRACE" ] || { echo "smoke: dsspclient logged no trace ID" >&2; exit 1; }
: >"$OUT/spans.json"
for port in "$ROUTER_PORT" "$NODE0_PORT" "$NODE1_PORT" "$HOME_PORT"; do
  # A process that never saw the trace answers 404; count it as no spans.
  curl -sf "http://localhost:$port/v1/trace/$TRACE" >>"$OUT/spans.json" || echo '[]' >>"$OUT/spans.json"
  echo >>"$OUT/spans.json"
done
jq -s --arg id "$TRACE" '
  add
  | if (map(select(.trace != $id)) | length) > 0 then error("span with foreign trace ID") else . end
  | [.[].stage] as $stages
  | if ($stages | contains(["route"]) and contains(["cache_lookup"]) and contains(["home_exec"])) | not
    then error("trace misses a hop: \($stages | join(", "))") else . end
  # The router forwards: its one span is the route, and the lookup belongs
  # to the owning node.
  | if any(.[]; .stage == "route" and .process == "router") | not
    then error("no route span recorded by the router") else . end
  | if any(.[]; .stage == "cache_lookup" and .process == "router")
    then error("the router recorded a cache_lookup span: it is running a node pathway again") else . end
  | "smoke: trace \($id) covers \($stages | join(", "))"' \
  -r "$OUT/spans.json"

# Graceful shutdown: SIGTERM the router, then a node; each must answer the
# frames in flight, close its connections and exit 0.
for pid in "$ROUTER_PID" "$NODE0_PID"; do
  kill -TERM "$pid"
  if ! wait "$pid"; then
    echo "smoke: process $pid did not shut down gracefully on SIGTERM" >&2
    exit 1
  fi
done
echo "smoke: router and node drained and exited cleanly on SIGTERM"
cleanup

# Canonical observable state: merge the fleet's logs, drop the per-run
# trace IDs, sort. Template affinity guarantees disjoint per-node logs,
# so the sorted merge must equal the sorted single-node log exactly.
jq -s -S '{decisions: (map(.decisions // []) | add
                       | map({UpdateTemplate, QueryTemplate, Class, Dropped}) | sort),
           dump: (map(.dump // []) | add | sort)}' \
  "$OUT/node0.json" "$OUT/node1.json" >"$OUT/fleet.json"

echo "smoke: single-node reference (dsspnode + dssphome)"
solo_topology "$OUT/solo_topology.json" "$SOLO_HOME_PORT" "$SOLO_NODE_PORT"
"$BIN/dssphome" -topology "$OUT/solo_topology.json" -as "$(url $SOLO_HOME_PORT)" -key "$KEY" &
wait_up "$(url $SOLO_HOME_PORT)"
"$BIN/dsspnode" -topology "$OUT/solo_topology.json" -as "$(url $SOLO_NODE_PORT)" &
wait_up "$(url $SOLO_NODE_PORT)"
replay "$OUT/solo_topology.json"
curl -sf "http://localhost:$SOLO_NODE_PORT/v1/decisions" |
  jq -s -S '{decisions: (map(.decisions // []) | add
                         | map({UpdateTemplate, QueryTemplate, Class, Dropped}) | sort),
             dump: (map(.dump // []) | add | sort)}' >"$OUT/solo.json"

diff -u "$OUT/solo.json" "$OUT/fleet.json"
echo "smoke: routed fleet matches single node (decision log + cache dump)"
