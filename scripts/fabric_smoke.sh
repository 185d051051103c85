#!/usr/bin/env bash
# fabric_smoke.sh — end-to-end smoke for the distributed sweep fabric.
#
# Brings up one plpserve coordinator and three plpserve workers joined
# to it, records a single-process baseline, submits the same sweep as
# a distsweep job, SIGKILLs one worker mid-run, and requires:
#
#   * the job still completes (requeue + evict absorbed the loss),
#   * the merged result is identical to the single-process recording
#     (plpbench compare -identical — wall-clock fields exempt),
#   * the plp_fabric_* metrics show the eviction and the re-queue,
#   * the job's trace tree contains the per-unit fabric spans.
#
# Artifacts land in $OUT (default .): BENCH_single.json,
# BENCH_fabric.json, fabric_serve.log, fabric_trace.json,
# fabric_metrics.txt.
#
# Env knobs: BENCHES (csv), INSTR, OUT, BIN (plpserve path; built with
# -race when absent so byte-identity is asserted under the race
# detector).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES=${BENCHES:-gamess,gcc,milc,astar,namd,povray}
INSTR=${INSTR:-200000}
OUT=${OUT:-.}
BIN=${BIN:-/tmp/plpserve-fabric}
PLPBENCH=${PLPBENCH:-/tmp/plpbench-fabric}

go build -race -o "$BIN" ./cmd/plpserve
go build -o "$PLPBENCH" ./cmd/plpbench

# Single-process baseline with the exact options the distsweep uses
# (default six schemes, no warm-up, telemetry off on both sides).
"$PLPBENCH" record -o "$OUT/BENCH_single.json" -tag single \
  -benches "$BENCHES" -instr "$INSTR" -no-telemetry

# Every process appends to the one log, so no writer truncates another.
: >"$OUT/fabric_serve.log"
"$BIN" -addr 127.0.0.1:0 -coordinator \
  -log-level info -log-format json >>"$OUT/fabric_serve.log" 2>&1 &
SERVE_PID=$!
WPIDS=()
trap 'kill "$SERVE_PID" "${WPIDS[@]}" 2>/dev/null || true' EXIT

# The coordinator prints its bound address first; the workers (which
# share the log) start only after that line exists.
ADDR=
for i in $(seq 1 50); do
  ADDR=$(sed -n 's/^plpserve: addr=//p' "$OUT/fabric_serve.log" | head -n1 || true)
  [ -n "$ADDR" ] && break
  sleep 0.2
done
test -n "$ADDR" || { echo "no 'plpserve: addr=' line"; exit 1; }
echo "coordinator: $ADDR"

# Three workers, each its own process on its own port; their pids, in
# start order, are for the mid-run SIGKILL.
for i in 1 2 3; do
  "$BIN" -join "$ADDR" -addr 127.0.0.1:0 -workers 1 \
    -log-level info -log-format json >>"$OUT/fabric_serve.log" 2>&1 &
  WPIDS+=($!)
done
echo "workers: ${WPIDS[*]}"

# All three workers must register.
for i in $(seq 1 100); do
  LIVE=$(curl -fsS "http://$ADDR/fabric/state" 2>/dev/null | jq '.workers | length' || echo 0)
  [ "$LIVE" = 3 ] && break
  sleep 0.2
done
test "$LIVE" = 3 || { echo "only $LIVE/3 workers registered"; exit 1; }
curl -fsS "http://$ADDR/fabric/state" | jq .

BENCH_JSON=$(printf '%s' "$BENCHES" | jq -R 'split(",")')
JOB=$(curl -fsS "http://$ADDR/jobs" \
  -d "{\"kind\":\"distsweep\",\"benches\":$BENCH_JSON,\"instructions\":$INSTR,\"noTelemetry\":true}")
echo "submitted: $JOB"
ID=$(echo "$JOB" | jq -r .id)
test -n "$ID" && test "$ID" != null

# Wait until at least one unit has committed (the sweep is genuinely
# mid-run), then SIGKILL the first worker.
for i in $(seq 1 300); do
  COMMITTED=$(curl -fsS "http://$ADDR/metrics" \
    | awk '$1 == "plp_fabric_units_committed_total" { print $2 }')
  [ "${COMMITTED:-0}" -ge 1 ] && break
  sleep 0.2
done
test "${COMMITTED:-0}" -ge 1 || { echo "no unit committed before kill"; exit 1; }
echo "killing worker pid ${WPIDS[0]} after $COMMITTED committed unit(s)"
kill -9 "${WPIDS[0]}"

# The job must still reach succeeded.
STATE=
for i in $(seq 1 600); do
  STATE=$(curl -fsS "http://$ADDR/jobs/$ID" | jq -r .state)
  case "$STATE" in
    succeeded) break ;;
    failed|canceled) echo "job $STATE"; curl -fsS "http://$ADDR/jobs/$ID" | jq .; exit 1 ;;
  esac
  sleep 1
done
test "$STATE" = succeeded || { echo "job did not finish: $STATE"; exit 1; }

# Merged result == single-process recording, byte-for-byte modulo wall
# clock.
curl -fsS "http://$ADDR/jobs/$ID/result" | jq .sweep > "$OUT/BENCH_fabric.json"
"$PLPBENCH" compare -identical "$OUT/BENCH_single.json" "$OUT/BENCH_fabric.json"

# Fabric metrics: every unit planned and committed exactly once, the
# killed worker evicted, its unit(s) re-queued, two workers left.
UNITS=$(( $(echo "$BENCHES" | tr ',' '\n' | wc -l) * 6 ))
curl -fsS "http://$ADDR/metrics" | grep '^plp_fabric' | tee "$OUT/fabric_metrics.txt"
awk -v u="$UNITS" '
  $1 == "plp_fabric_units_total"            { planned = $2 }
  $1 == "plp_fabric_units_committed_total"  { committed = $2 }
  $1 == "plp_fabric_workers_evicted_total"  { evicted = $2 }
  $1 == "plp_fabric_units_requeued_total"   { requeued = $2 }
  $1 == "plp_fabric_workers"                { workers = $2 }
  END {
    ok = (planned == u) && (committed == u) && (evicted >= 1) && \
         (requeued >= 1) && (workers == 2)
    if (!ok) printf "fabric metrics wrong: planned=%s committed=%s evicted=%s requeued=%s workers=%s (want %d/%d/>=1/>=1/2)\n", \
      planned, committed, evicted, requeued, workers, u, u
    exit !ok
  }' "$OUT/fabric_metrics.txt"

# The trace tree: a per-unit fabric span for every dispatch (re-queued
# units get more than one).
curl -fsS "http://$ADDR/jobs/$ID/trace" > "$OUT/fabric_trace.json"
jq -e --argjson u "$UNITS" \
  '[.. | objects | select(.name == "fabric-unit")] | length >= $u' \
  "$OUT/fabric_trace.json"

# Graceful shutdown: the surviving workers drain, then the coordinator.
kill -TERM "${WPIDS[1]}" "${WPIDS[2]}"
wait "${WPIDS[1]}"
wait "${WPIDS[2]}"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
echo "fabric smoke OK: $UNITS units, 1 worker killed, result identical"
