#!/usr/bin/env bash
# e2e smoke gate for the served daemon: boot it, watch the ops probes
# transition (healthz live while readyz still reports the warming
# topology), replay a trace over both transports through the real
# sockets, assert non-zero decision counters on the Prometheus scrape
# (and the spool and path-cache series the -spool and -pathcache flags
# add),
# upload a checkpoint trained by the figret CLI (and roll it back),
# verify SIGTERM drains the process within the budget, and restart it
# over its spool with the last record torn.
#
# Run from the repository root:  ./test/e2e.sh
set -euo pipefail

API_PORT="${E2E_API_PORT:-18080}"
OPS_PORT="${E2E_OPS_PORT:-19090}"
API="http://127.0.0.1:${API_PORT}"
OPS="http://127.0.0.1:${OPS_PORT}"
TOPO=pod-db
DRAIN_BUDGET_SECS=5

workdir="$(mktemp -d)"
served_pid=""
cleanup() {
  if [[ -n "$served_pid" ]] && kill -0 "$served_pid" 2>/dev/null; then
    kill -9 "$served_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
  echo "e2e: FAIL: $*" >&2
  echo "--- served log ---" >&2
  cat "$workdir/served.log" >&2 || true
  exit 1
}

code() { curl -s -o /dev/null -w '%{http_code}' "$1" || true; }

metric() {
  # Prints the value of the first series whose name+labels prefix-match
  # $1 in the buffered scrape at $workdir/metrics.
  awk -v want="$1" 'index($0, want) == 1 { print $2; exit }' "$workdir/metrics"
}

echo "e2e: building served"
go build -o "$workdir/served" ./cmd/served

# A bootstrap window the demand window can never hold is refused when the
# flags are parsed (exit 2, both flags named), not discovered as a 500 on
# every ingest after boot and training.
rc=0
"$workdir/served" -topos "$TOPO" -H 300 -history 256 -addr "127.0.0.1:$API_PORT" -opsaddr "" \
  >"$workdir/served.log" 2>&1 || rc=$?
[[ "$rc" == 2 ]] && grep -q -- '-H 300' "$workdir/served.log" && grep -q -- '-history 256' "$workdir/served.log" \
  || fail "served -H 300 -history 256 exited $rc, want 2 with both flags named"
echo "e2e: -H above -history refused at flag-parse time"

echo "e2e: booting served ($TOPO, api :$API_PORT, ops :$OPS_PORT)"
"$workdir/served" -topos "$TOPO" -addr "127.0.0.1:$API_PORT" -opsaddr "127.0.0.1:$OPS_PORT" \
  -T 60 -epochs 2 -H 4 -seed 3 -logformat json -draintimeout "${DRAIN_BUDGET_SECS}s" \
  -spool "$workdir/spool" -pathcache "$workdir/paths" \
  >"$workdir/served.log" 2>&1 &
served_pid=$!

# Liveness must come up while the daemon is still bootstrapping.
for _ in $(seq 1 300); do
  [[ "$(code "$OPS/healthz")" == 200 ]] && break
  kill -0 "$served_pid" 2>/dev/null || fail "served exited during boot"
  sleep 0.1
done
[[ "$(code "$OPS/healthz")" == 200 ]] || fail "healthz never reached 200"
echo "e2e: healthz is live"

# Readiness is defined as every topology having served >=1 real
# decision; before any snapshot is ingested it must be 503 with the
# topology named in the body.
readyz_body="$(curl -s "$OPS/readyz")"
[[ "$(code "$OPS/readyz")" == 503 ]] || fail "readyz was not 503 before the first decision"
grep -q "$TOPO" <<<"$readyz_body" || fail "readyz 503 body does not name the topology: $readyz_body"
echo "e2e: readyz correctly pending: $readyz_body"

# Wait for the bootstrap checkpoint, then replay over both transports.
for _ in $(seq 1 600); do
  [[ "$(curl -s "$API/v1/topologies/$TOPO/routing" | grep -c '"version":[1-9]' || true)" -ge 1 ]] && break
  kill -0 "$served_pid" 2>/dev/null || fail "served exited during bootstrap"
  sleep 0.1
done

# Where the boot went is readable from outputs alone: the "topology
# ready" record carries the three stage times, and the bootstrap install
# is listed as version 1 with a size.
ready="$(grep '"msg":"topology ready"' "$workdir/served.log" || true)"
for key in env_s train_s install_s; do
  grep -Eq "\"$key\":[0-9]" <<<"$ready" || fail "topology-ready record lacks $key: ${ready:-missing}"
done
checkpoints="$(curl -s "$API/v1/topologies/$TOPO/checkpoints")"
grep -Eq '"version":1,"source":"bootstrap","bytes":[1-9][0-9]*,' <<<"$checkpoints" \
  || fail "checkpoint listing lacks a sized bootstrap version 1: $checkpoints"
echo "e2e: boot stages logged, bootstrap checkpoint listed"

echo "e2e: replaying over JSON"
"$workdir/served" -topos "$TOPO" -drive "$API" -drivetransport json -T 60 -seed 3 -driven 7 -logformat text \
  >"$workdir/drive-json.log" 2>&1 || fail "json replay failed: $(cat "$workdir/drive-json.log")"
grep -Eq ' decisions=7( |$)' "$workdir/drive-json.log" \
  || fail "json replay did not log decisions=7: $(cat "$workdir/drive-json.log")"
echo "e2e: replaying over the wire stream"
"$workdir/served" -topos "$TOPO" -drive "$API" -drivetransport wire -T 60 -seed 3 -driven 500 -logformat text \
  >"$workdir/drive-wire.log" 2>&1 || fail "wire replay failed: $(cat "$workdir/drive-wire.log")"
grep -Eq ' requests=500( |$)' "$workdir/drive-wire.log" \
  || fail "wire replay did not log requests=500: $(cat "$workdir/drive-wire.log")"
grep -Eq ' decisions_per_sec=[1-9][0-9]*( |$)' "$workdir/drive-wire.log" \
  || fail "wire replay logged no decision rate: $(cat "$workdir/drive-wire.log")"
# Every stream reply is a full decision frame.
grep -Eq ' fulls=500( |$)' "$workdir/drive-wire.log" \
  || fail "wire replay did not log fulls=500: $(cat "$workdir/drive-wire.log")"

[[ "$(code "$OPS/readyz")" == 200 ]] || fail "readyz did not flip to 200 after serving decisions"
echo "e2e: readyz flipped to ready"

curl -s "$OPS/metrics" >"$workdir/metrics"
decisions="$(metric "figret_serve_decisions_total{topology=\"$TOPO\"}")"
json_reqs="$(metric 'figret_serve_transport_requests_total{transport="json"}')"
wire_reqs="$(metric 'figret_serve_transport_requests_total{transport="wire"}')"
[[ -n "$decisions" && "$decisions" != 0 ]] || fail "figret_serve_decisions_total is '${decisions:-missing}'"
[[ -n "$json_reqs" && "$json_reqs" != 0 ]] || fail "json transport counter is '${json_reqs:-missing}'"
[[ -n "$wire_reqs" && "$wire_reqs" != 0 ]] || fail "wire transport counter is '${wire_reqs:-missing}'"
echo "e2e: metrics scrape ok (decisions=$decisions json=$json_reqs wire=$wire_reqs)"
# The controller books its spool's writes, and the daemon's path store
# its loads: one miss, since the cache directory started empty.
spooled="$(metric figret_tracestore_blocks_written_total)"
path_misses="$(metric 'figret_cache_misses_total{cache="paths"}')"
[[ -n "$spooled" && "$spooled" != 0 ]] || fail "figret_tracestore_blocks_written_total is '${spooled:-missing}'"
[[ "$path_misses" == 1 ]] || fail "path-cache misses are '${path_misses:-missing}', want 1 on a cold cache"
echo "e2e: spool and path-cache series ok (blocks_written=$spooled path_misses=$path_misses)"

# The one file format a second process reads: a model trained by the
# figret CLI with the daemon's own flags uploads as version 2, serves
# the next decision, and rolls back; one trained for another topology is
# refused with 422 and changes nothing.
echo "e2e: building figret, training a checkpoint for $TOPO"
go build -o "$workdir/figret" ./cmd/figret
"$workdir/figret" train -topo "$TOPO" -T 60 -H 4 -epochs 2 -seed 3 -batch 16 -out "$workdir/model.json" \
  >"$workdir/train.log" 2>&1 || fail "figret train failed: $(cat "$workdir/train.log")"
uploaded="$(curl -s -X POST --data-binary "@$workdir/model.json" "$API/v1/topologies/$TOPO/checkpoints")"
grep -q '"version":2,"source":"upload"' <<<"$uploaded" || fail "upload of the CLI-trained model answered: $uploaded"
decision="$(curl -s -X POST -d '{"demand":[1,2,1,1,3,1,1,1,2,1,1,1]}' "$API/v1/topologies/$TOPO/snapshots")"
grep -q '"version":2,' <<<"$decision" || fail "decision after the upload is not served by version 2: $decision"
rolled="$(curl -s -X POST "$API/v1/topologies/$TOPO/checkpoints/rollback")"
grep -q '"version":1,' <<<"$rolled" || fail "rollback did not return to version 1: $rolled"
"$workdir/figret" train -topo geant -T 60 -H 4 -epochs 1 -seed 3 -batch 16 -out "$workdir/geant.json" \
  >"$workdir/train.log" 2>&1 || fail "figret train (geant) failed: $(cat "$workdir/train.log")"
wrong="$(curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary "@$workdir/geant.json" "$API/v1/topologies/$TOPO/checkpoints")"
[[ "$wrong" == 422 ]] || fail "a geant checkpoint uploaded to $TOPO answered $wrong, want 422"
curl -s "$API/v1/topologies/$TOPO/checkpoints" | grep -q '"version":1,"source":"bootstrap","bytes":[1-9][0-9]*,"active":true' \
  || fail "active checkpoint is not the bootstrap after rollback and the refused upload"
echo "e2e: CLI-trained checkpoint uploaded, served, rolled back; foreign checkpoint refused"

# The spool's durable count just before the drain: every accepted
# snapshot is one record in $workdir/spool/$TOPO.fgt.
curl -s "$OPS/metrics" >"$workdir/metrics"
spooled_snaps="$(metric "figret_serve_snapshots_total{topology=\"$TOPO\"}")"
[[ -n "$spooled_snaps" && "$spooled_snaps" -gt 1 ]] || fail "figret_serve_snapshots_total is '${spooled_snaps:-missing}'"

echo "e2e: sending SIGTERM"
kill -TERM "$served_pid"
deadline=$(( $(date +%s) + DRAIN_BUDGET_SECS ))
while kill -0 "$served_pid" 2>/dev/null; do
  [[ "$(date +%s)" -lt "$deadline" ]] || fail "served did not drain within ${DRAIN_BUDGET_SECS}s of SIGTERM"
  sleep 0.1
done
wait "$served_pid" || fail "served exited non-zero after SIGTERM"
grep -q "shutdown complete" "$workdir/served.log" || fail "no graceful-shutdown log record"
served_pid=""

# A crash mid-flush tears the last record. A daemon restarted over that
# spool drops the torn record and numbers on from the durable count:
# the first snapshot it takes is number S-1. Its recovery walk is the
# only read of the spool: it checks each of the S-1 durable records once
# and hands the window back, so no reader is opened.
spool="$workdir/spool/$TOPO.fgt"
truncate -s "$(( $(stat -c %s "$spool") - 3 ))" "$spool"
echo "e2e: restarting over the spool with its last record torn ($spooled_snaps snapshots before)"
"$workdir/served" -topos "$TOPO" -addr "127.0.0.1:$API_PORT" -opsaddr "127.0.0.1:$OPS_PORT" -T 60 -H 4 -seed 3 \
  -bootstrap=false -spool "$workdir/spool" -pathcache "$workdir/paths" \
  >"$workdir/served.log" 2>&1 &
served_pid=$!
for _ in $(seq 1 300); do
  [[ "$(code "$API/v1/topologies")" == 200 ]] && break
  kill -0 "$served_pid" 2>/dev/null || fail "served exited booting over the torn spool"
  sleep 0.1
done
resumed="$(curl -s -X POST -d '{"demand":[1,2,1,1,3,1,1,1,2,1,1,1]}' "$API/v1/topologies/$TOPO/snapshots")"
grep -q "\"snapshot\":$(( spooled_snaps - 1 ))," <<<"$resumed" \
  || fail "first snapshot after the torn-spool restart answered $resumed, want \"snapshot\":$(( spooled_snaps - 1 ))"
curl -s "$OPS/metrics" >"$workdir/metrics"
verified="$(metric figret_tracestore_blocks_verified_total)"
[[ "$verified" == "$(( spooled_snaps - 1 ))" ]] \
  || fail "restart verified ${verified:-no} spool records, want $(( spooled_snaps - 1 )), each durable record once"
! grep -q figret_tracestore_opens_total "$workdir/metrics" || fail "restart opened a trace-store reader"
kill -TERM "$served_pid"
wait "$served_pid" || fail "restarted served exited non-zero after SIGTERM"
served_pid=""
echo "e2e: restart over a torn spool resumed at snapshot $(( spooled_snaps - 1 )), $verified records read once"

echo "e2e: PASS"
