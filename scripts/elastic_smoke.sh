#!/usr/bin/env bash
# Elastic-fleet smoke test over real processes: a dssprouter fronting two
# dsspnode processes admits a third node mid-run with a warm handoff
# (POST /v1/ring/join), drains a veteran node out of the ring (warm
# leave), then declares another node dead (warm=false). Asserts:
#   - each membership change flips the epoch and the ring view agrees;
#   - the warm drain streams sealed buckets and every previously cached
#     entry still hits — including entries rehomed onto the node that
#     joined mid-run;
#   - migration rides the frame connections: no node serves an HTTP
#     migration route, and no process counted a refused frame;
#   - the kill shrinks the ring and the fleet keeps serving;
#   - after all the churn, the fleet's merged invalidation-decision log
#     still diffs clean against a static single-node reference replay —
#     membership changes must never invent or lose decisions.
set -euo pipefail
cd "$(dirname "$0")/.."

command -v jq >/dev/null || { echo "elastic_smoke: jq is required" >&2; exit 1; }

KEY=elastic-smoke
ROUTER_PORT=18700 HOME_PORT=18701 NODE0_PORT=18702 NODE1_PORT=18703 NODE2_PORT=18704
SOLO_HOME_PORT=18711 SOLO_NODE_PORT=18712
SMOKE=elastic_smoke
source scripts/lib.sh

# Sum of dssp_cache_hits_total (all template labels) across the given
# node ports. /v1/metrics serves JSON.
fleet_hits() {
  local total=0 port
  for port in "$@"; do
    local h
    h=$(curl -sf "http://localhost:$port/v1/metrics" |
      jq '[.metrics[] | select(.name == "dssp_cache_hits_total") | .value // 0] | add // 0')
    total=$((total + h))
  done
  echo "$total"
}

# The pipeline parity script: miss/store, miss/store, hit, invalidating
# update, re-miss/store, miss/store. Leaves Q1(bear) and Q2(5) cached.
replay() {
  local url=$1
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -query Q1 -params bear >/dev/null
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -query Q2 -params 1 >/dev/null
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -query Q2 -params 1 >/dev/null
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -update U1 -params 1 >/dev/null
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -query Q1 -params bear >/dev/null
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -query Q2 -params 5 >/dev/null
}

# Re-query both entries replay() left cached; each must hit somewhere.
probe_warm_entries() {
  local url=$1
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -query Q1 -params bear >/dev/null
  "$BIN/dsspclient" -app toystore -key "$KEY" -node "$url" -query Q2 -params 5 >/dev/null
}

# Run a probe and require exactly $2 fresh fleet-wide hits.
assert_probe_hits() {
  local label=$1 want=$2 before after
  before=$(fleet_hits "$NODE0_PORT" "$NODE1_PORT" "$NODE2_PORT")
  probe_warm_entries "http://localhost:$ROUTER_PORT"
  after=$(fleet_hits "$NODE0_PORT" "$NODE1_PORT" "$NODE2_PORT")
  if (( after - before != want )); then
    echo "elastic_smoke: FAIL: $((after - before)) of $want warm entries hit $label (re-missed)" >&2
    exit 1
  fi
}

echo "elastic_smoke: routed fleet (dssprouter + 2 dsspnode + dssphome)"
"$BIN/dssphome" -app toystore -key "$KEY" -addr ":$HOME_PORT" &
wait_up "http://localhost:$HOME_PORT"
"$BIN/dsspnode" -app toystore -addr ":$NODE0_PORT" -home "http://localhost:$HOME_PORT" &
"$BIN/dsspnode" -app toystore -addr ":$NODE1_PORT" -home "http://localhost:$HOME_PORT" &
wait_up "http://localhost:$NODE0_PORT"
wait_up "http://localhost:$NODE1_PORT"
"$BIN/dssprouter" -app toystore -addr ":$ROUTER_PORT" \
  -nodes "http://localhost:$NODE0_PORT,http://localhost:$NODE1_PORT" &
wait_up "http://localhost:$ROUTER_PORT"

replay "http://localhost:$ROUTER_PORT"

echo "elastic_smoke: joining a third node mid-run"
"$BIN/dsspnode" -app toystore -addr ":$NODE2_PORT" -home "http://localhost:$HOME_PORT" &
wait_up "http://localhost:$NODE2_PORT"
curl -sf -X POST "http://localhost:$ROUTER_PORT/v1/ring/join" \
  -H 'Content-Type: application/json' \
  -d "{\"url\":\"http://localhost:$NODE2_PORT\",\"warm\":true}" >"$OUT/join.json"
jq -e '.kind == "join" and .warm and .epoch == 1 and (.members == [0, 1, 2])' "$OUT/join.json" >/dev/null ||
  { echo "elastic_smoke: bad join report:" >&2; cat "$OUT/join.json" >&2; exit 1; }
assert_probe_hits "after the join" 2
echo "elastic_smoke: join committed epoch 1; all warm entries still hit"

# Drain node 1 out of the ring. It owns every cached toystore bucket, so
# the warm leave must stream its sealed entries to the survivors — the
# consistent ring sends Q1's bucket to the node that joined a moment ago
# and Q2's back to node 0 — and the probes must hit on the new owners
# without ever touching the home server.
echo "elastic_smoke: draining node 1 (warm leave)"
curl -sf -X POST "http://localhost:$ROUTER_PORT/v1/ring/leave" \
  -H 'Content-Type: application/json' -d '{"node":1,"warm":true}' >"$OUT/leave.json"
jq -e '.kind == "leave" and .warm and .epoch == 2 and (.members == [0, 2])' "$OUT/leave.json" >/dev/null ||
  { echo "elastic_smoke: bad leave report:" >&2; cat "$OUT/leave.json" >&2; exit 1; }
MIGRATED=$(jq -r .entries_migrated "$OUT/leave.json")
if (( MIGRATED == 0 )); then
  echo "elastic_smoke: FAIL: warm leave streamed no entries off the drained node" >&2
  exit 1
fi
node2_before=$(fleet_hits "$NODE2_PORT")
assert_probe_hits "after the drain" 2
node2_after=$(fleet_hits "$NODE2_PORT")
if (( node2_after == node2_before )); then
  echo "elastic_smoke: FAIL: entries rehomed to the joined node never hit there" >&2
  exit 1
fi
echo "elastic_smoke: drain migrated $MIGRATED entries; joined node served $((node2_after - node2_before)) of them"

# The drain rode the frame connections: a node serves no HTTP migration
# route, and no process refused a frame along the way.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary x "http://localhost:$NODE0_PORT/v1/buckets/export")
if [[ $code != 404 && $code != 405 ]]; then
  echo "elastic_smoke: FAIL: POST /v1/buckets/export answered $code, want 404 or 405" >&2
  exit 1
fi
for port in "$ROUTER_PORT" "$NODE0_PORT" "$NODE1_PORT" "$NODE2_PORT"; do
  bad=$(curl -sf "http://localhost:$port/v1/metrics" |
    jq '[.metrics[] | select(.name == "dssp_http_bad_frames_total") | .value // 0] | add // 0')
  if (( bad != 0 )); then
    echo "elastic_smoke: FAIL: the process on :$port refused $bad frames" >&2
    exit 1
  fi
done
echo "elastic_smoke: migration rode frames; no HTTP migration route, no refused frame"

echo "elastic_smoke: killing node 0 (no drain)"
curl -sf -X POST "http://localhost:$ROUTER_PORT/v1/ring/leave" \
  -H 'Content-Type: application/json' -d '{"node":0,"warm":false}' >"$OUT/kill.json"
jq -e '.kind == "kill" and (.warm | not) and .epoch == 3 and (.members == [2])' "$OUT/kill.json" >/dev/null ||
  { echo "elastic_smoke: bad kill report:" >&2; cat "$OUT/kill.json" >&2; exit 1; }
curl -sf "http://localhost:$ROUTER_PORT/v1/ring" >"$OUT/ring.json"
jq -e '.epoch == 3 and (.members == [2])' "$OUT/ring.json" >/dev/null ||
  { echo "elastic_smoke: ring view disagrees:" >&2; cat "$OUT/ring.json" >&2; exit 1; }
# The shrunken fleet still serves.
"$BIN/dsspclient" -app toystore -key "$KEY" -node "http://localhost:$ROUTER_PORT" -query Q2 -params 2 >/dev/null
echo "elastic_smoke: single-survivor fleet serving at epoch 3"

# Decision-log parity across all the churn. The de-ringed node processes
# are still up, so their pre-churn decisions are readable; membership
# changes migrate entries but never decisions, and rehoming records none.
for port in "$NODE0_PORT" "$NODE1_PORT" "$NODE2_PORT"; do
  curl -sf "http://localhost:$port/v1/decisions" >>"$OUT/fleet_raw.json"
  echo >>"$OUT/fleet_raw.json"
done
jq -s -S '{decisions: (map(.decisions // []) | add
                       | map({UpdateTemplate, QueryTemplate, Class, Dropped}) | sort)}' \
  "$OUT/fleet_raw.json" >"$OUT/fleet.json"
cleanup

echo "elastic_smoke: static single-node reference (dsspnode + dssphome)"
"$BIN/dssphome" -app toystore -key "$KEY" -addr ":$SOLO_HOME_PORT" &
wait_up "http://localhost:$SOLO_HOME_PORT"
"$BIN/dsspnode" -app toystore -addr ":$SOLO_NODE_PORT" -home "http://localhost:$SOLO_HOME_PORT" &
wait_up "http://localhost:$SOLO_NODE_PORT"
replay "http://localhost:$SOLO_NODE_PORT"
# The fleet probed its warm entries twice (after the join and after the
# drain) and then served Q2(2); replay the identical tail here so both
# sides saw the same op sequence.
probe_warm_entries "http://localhost:$SOLO_NODE_PORT"
probe_warm_entries "http://localhost:$SOLO_NODE_PORT"
"$BIN/dsspclient" -app toystore -key "$KEY" -node "http://localhost:$SOLO_NODE_PORT" -query Q2 -params 2 >/dev/null
curl -sf "http://localhost:$SOLO_NODE_PORT/v1/decisions" |
  jq -s -S '{decisions: (map(.decisions // []) | add
                         | map({UpdateTemplate, QueryTemplate, Class, Dropped}) | sort)}' >"$OUT/solo.json"

diff -u "$OUT/solo.json" "$OUT/fleet.json"
echo "elastic_smoke: decision logs match the static-fleet reference across join + drain + kill"
