# Shared harness of the process smokes (scripts/*_smoke.sh): source it
# after `set -euo pipefail` and `cd` to the repository root. It builds the
# four binaries into $BIN, creates the scratch directory $OUT, and
# installs the cleanup trap. SMOKE names the script in failure messages.
: "${SMOKE:=smoke}"
BIN=$(mktemp -d) OUT=$(mktemp -d)

# cleanup kills every background process the script started and reaps it.
cleanup() {
  jobs -p | xargs -r kill 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/dssphome ./cmd/dsspnode ./cmd/dssprouter ./cmd/dsspclient

# wait_up blocks until the server at base URL $1 answers /v1/metrics.
wait_up() {
  for _ in $(seq 1 100); do
    if curl -sf -o /dev/null "$1/v1/metrics"; then return 0; fi
    sleep 0.1
  done
  echo "$SMOKE: server at $1 did not come up" >&2
  exit 1
}
