#!/usr/bin/env bash
# Chaos certification against a live harassd: start the service with a
# deterministic seeded serve-layer fault plan (shard panics, hard
# stalls, latency spikes on one shard), drive it with concurrent
# clients, and assert the no-loss contract end to end:
#
#   - every request gets a terminal answer (loadgen -fail-on-errors:
#     transport errors and unexpected statuses are zero; 429/503 shed
#     with Retry-After are the service behaving as designed);
#   - the chaos actually bit (shard generations restarted);
#   - the self-healing layer re-homed in-flight documents (redispatch
#     counters are visible in the scraped summary);
#   - liveness stays green and the live binary exports its request
#     and per-shard queue metrics on /metrics;
#   - SIGTERM still drains cleanly to exit 0 afterwards.
#
# Usage: scripts/chaos_serve.sh [-clients N] [-duration D]
set -euo pipefail
cd "$(dirname "$0")/.."

clients=32
duration=5s
while [[ $# -gt 0 ]]; do
  case "$1" in
    -clients)  clients=$2; shift 2 ;;
    -duration) duration=$2; shift 2 ;;
    *) echo "usage: $0 [-clients N] [-duration D]" >&2; exit 2 ;;
  esac
done

plan='seed=7,panic=0.05,stall=0.01,spike=0.08,spike-ms=5,shards=0,max-faults=60'

workdir=$(mktemp -d)
log="$workdir/harassd.log"
cleanup() {
  [[ -n "${pid:-}" ]] && kill "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build harassd + loadgen"
go build -o "$workdir/harassd" ./cmd/harassd
go build -o "$workdir/loadgen" ./cmd/loadgen

echo "== start harassd with chaos plan ($plan)"
"$workdir/harassd" -addr 127.0.0.1:0 -scale quick -shards 4 -chaos "$plan" 2>"$log" &
pid=$!

addr=""
for _ in $(seq 1 150); do
  addr=$(sed -n 's|.*listening on http://||p' "$log")
  [[ -n "$addr" ]] && break
  kill -0 "$pid" 2>/dev/null || { cat "$log" >&2; echo "harassd died during startup" >&2; exit 1; }
  sleep 0.2
done
[[ -n "$addr" ]] || { cat "$log" >&2; echo "harassd never reported an address" >&2; exit 1; }
echo "   harassd at $addr (pid $pid)"

for _ in $(seq 1 50); do
  curl -sf "http://$addr/readyz" >/dev/null && break
  sleep 0.1
done

echo "== chaos load ($clients clients, $duration)"
report="$workdir/chaos_report.json"
"$workdir/loadgen" -addr "$addr" -clients "$clients" -duration "$duration" \
  -batch-every 10 -batch-docs 8 -fail-on-errors -out "$report"

field() { sed -n "s/.*\"$1\": \([0-9][0-9]*\).*/\1/p" "$report" | head -1; }

errors=$(field errors)
restarts=$(field shard_restarts)
redisp=$(field redispatched_docs)
redisp_failed=$(field redispatch_failed_docs)
ok=$(field ok)

[[ "$errors" == "0" ]] || { echo "chaos run had $errors errored requests (want 0: nothing lost)" >&2; exit 1; }
[[ "$ok" -gt 0 ]] || { echo "chaos run scored no documents" >&2; exit 1; }
if [[ "$restarts" -eq 0 ]]; then
  echo "chaos never bit: 0 shard restarts under plan $plan" >&2
  exit 1
fi
echo "   certified: $ok scored, 0 lost, $restarts shard restarts," \
     "$redisp docs re-homed, $redisp_failed answered terminal 503"

echo "== liveness + metrics exposition after the chaos load"
# Capture each response before grepping: `curl | grep -q` races grep's
# early exit against curl's final write (curl exit 23 under pipefail).
body=$(curl -sf "http://$addr/healthz")
grep -q ok <<<"$body" || { echo "/healthz not ok after chaos: $body" >&2; exit 1; }
body=$(curl -sf "http://$addr/metrics")
for metric in serve_requests_total serve_shard_queue_depth; do
  grep -q "$metric" <<<"$body" || { echo "/metrics missing $metric" >&2; exit 1; }
done

echo "== graceful shutdown under chaos residue (SIGTERM)"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
if [[ $rc -ne 0 ]]; then
  cat "$log" >&2
  echo "harassd exited $rc after SIGTERM (want 0)" >&2
  exit 1
fi
grep -q "drained cleanly" "$log" || { cat "$log" >&2; echo "missing clean-drain log line" >&2; exit 1; }

echo "OK — chaos-certified: no admitted request lost"
