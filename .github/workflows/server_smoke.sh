#!/usr/bin/env bash
# End-to-end exercise of the HTTP front door against a real build: boot
# re2xolap_server on a freshly built snapshot (in --live mode), drive it
# with real HTTP — health, metrics, a successful query, one
# guard-cancelled query (504: the arrival-anchored deadline expires
# inside an injected execution delay), a shed query (503 + Retry-After:
# capacity 1 + queue 1 and three concurrent requests),
# and an ingest round (POST /ingest applies a batch, the very next
# query sees the new triple, no restart) — then SIGTERM it and require
# a clean drain: exit code 0 and a schema-valid JSONL query log. Run in
# the Release and ASan jobs so the socket, ingest, drain, and log-flush
# paths stay exercised (and leak-clean) on every push.
set -euo pipefail

BUILD_DIR="${1:?usage: server_smoke.sh <build-dir>}"
SNAP_CLI="$BUILD_DIR/examples/re2xolap_snapshot"
SERVER="$BUILD_DIR/examples/re2xolap_server"
WORK="$BUILD_DIR/server_smoke"
rm -rf "$WORK"
mkdir -p "$WORK"

fail() { echo "server_smoke: $*" >&2; exit 1; }

cat > "$WORK/data.nt" <<'EOF'
<http://e/obs1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Obs> .
<http://e/obs1> <http://e/dest> <http://e/de> .
<http://e/obs1> <http://e/count> "42"^^xsd:integer .
<http://e/obs2> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Obs> .
<http://e/obs2> <http://e/dest> <http://e/fr> .
<http://e/obs2> <http://e/count> "7"^^xsd:integer .
<http://e/de> <http://e/label> "Germany" .
<http://e/fr> <http://e/label> "France" .
EOF

"$SNAP_CLI" build "$WORK/data.nt" "$WORK/data.snap" http://e/Obs

# Capacity 1 + queue 1 and a 500ms injected delay per engine execution:
# small enough to saturate with three curls, slow enough that a 50ms
# request deadline reliably expires mid-execution.
RE2XOLAP_FAILPOINTS="engine.execute=delay:500" \
  "$SERVER" "$WORK/data.snap" --port=0 --workers=1 --queue=1 --live \
  --query-log="$WORK/query_log.jsonl" > "$WORK/server.out" 2> "$WORK/server.err" &
SERVER_PID=$!
trap 'kill -9 "$SERVER_PID" 2>/dev/null || true' EXIT

# The bound (ephemeral) port is printed as "listening on <addr>:<port>".
PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' "$WORK/server.out")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited before listening"
  sleep 0.1
done
[ -n "$PORT" ] || fail "server never printed its port"
BASE="http://127.0.0.1:$PORT"
# Distinct query texts per probe: the engine caches results by query, and
# a cache hit bypasses execution (and so the injected delay) entirely —
# reusing one text would let the timeout and shed probes answer from
# cache instead of exercising the guard and the admission queue.
QUERY='SELECT ?s WHERE { ?s a <http://e/Obs> }'
Q_TIMEOUT='SELECT ?t WHERE { ?t a <http://e/Obs> }'
Q_INGEST='SELECT ?i WHERE { ?i a <http://e/Obs> }'

# Health + metrics.
curl -sf "$BASE/healthz" | grep -q '"status": "serving"' \
  || fail "healthz not serving"
curl -sf "$BASE/metrics" | grep -q '^server_requests' \
  || fail "metrics missing server_requests"

# A successful query (rides out the injected 500ms delay).
OK_BODY="$(curl -sf --max-time 10 -X POST --data "$QUERY" "$BASE/query")"
echo "$OK_BODY" | grep -q '"row_count": 2' \
  || fail "query did not return 2 observations: $OK_BODY"

# Guard-cancelled query: a 50ms deadline (anchored at arrival) expires
# inside the 500ms execution delay -> 504 Gateway Timeout.
CODE="$(curl -s --max-time 10 -o "$WORK/timeout.out" -w '%{http_code}' \
  -X POST --data "$Q_TIMEOUT" "$BASE/query?timeout_ms=50")"
[ "$CODE" = "504" ] || fail "deadline query returned $CODE, want 504"

# Shed: one worker and a one-slot queue hold at most two queries, and the
# injected delay keeps each in flight for 500ms, so of three queries sent
# together at least one must be refused with 503 + Retry-After (two when
# all three reach the queue before the worker takes the first). The probe
# cannot wait on /metrics for the pinned state: a /metrics request passes
# the same admission queue, so it would take the slot meant for a pin, or
# be shed itself once the pins hold the server. Nor can it sleep a fixed
# time before the third query: on a loaded machine the pins may not have
# arrived yet, or the first may already be done. So all three go out at
# once, and a round in which they did not overlap (nothing shed) is
# repeated with fresh query texts — a repeated text would be answered from
# the result cache without the delay — for at most 5 s. /metrics must then
# count the shed request.
shed_round() {  # $1: round number; leaves the responses in shed_<k>.out
  local pids=() k
  for k in 1 2 3; do
    curl -si --max-time 10 -X POST \
      --data "SELECT ?r${1}_$k WHERE { ?r${1}_$k a <http://e/Obs> }" \
      "$BASE/query" > "$WORK/shed_$k.out" &
    pids+=("$!")
  done
  wait "${pids[@]}"
}
SHED=""
ROUND=0
DEADLINE=$((SECONDS + 5))
while [ -z "$SHED" ]; do
  [ "$SECONDS" -lt "$DEADLINE" ] \
    || fail "no query shed in $ROUND rounds of three concurrent queries (5 s)"
  ROUND=$((ROUND + 1))
  shed_round "$ROUND"
  for k in 1 2 3; do
    head -1 "$WORK/shed_$k.out" | grep -q ' 503' || continue
    SHED="$WORK/shed_$k.out"
    grep -qi '^retry-after:' "$SHED" || fail "shed response lacks Retry-After"
  done
done
# (Read into a file first: under pipefail, grep -q closing the pipe early
# would fail curl with SIGPIPE.)
curl -sf "$BASE/metrics" > "$WORK/metrics.out" || fail "metrics unreachable"
grep -q '^server_shed [1-9]' "$WORK/metrics.out" \
  || fail "metrics do not count the shed query"

# Ingest round: the server booted with --live, so POST /ingest applies
# an N-Triples batch atomically and the very next query must see the
# new observation — no re-freeze, no restart.
curl -sf "$BASE/healthz" | grep -q '"live": true' \
  || fail "healthz does not report the store live"
INGEST_BODY="$(curl -sf --max-time 10 -X POST --data \
  '<http://e/obs3> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://e/Obs> .' \
  "$BASE/ingest")"
echo "$INGEST_BODY" | grep -q '"added": 1' \
  || fail "ingest did not apply the batch: $INGEST_BODY"
AFTER_BODY="$(curl -sf --max-time 10 -X POST --data "$Q_INGEST" "$BASE/query")"
echo "$AFTER_BODY" | grep -q '"row_count": 3' \
  || fail "query after ingest did not see 3 observations: $AFTER_BODY"

# SIGTERM -> graceful drain: the process must exit 0 on its own.
kill -TERM "$SERVER_PID"
RC=0
wait "$SERVER_PID" || RC=$?
[ "$RC" -eq 0 ] || fail "server exited $RC after SIGTERM (want 0)"
trap - EXIT

# The drain flushed the query log; every line must be a schema-valid
# record (same contract as query_log_smoke.sh).
test -s "$WORK/query_log.jsonl" || fail "drain wrote no query-log lines"
python3 - "$WORK/query_log.jsonl" <<'EOF'
import json, sys

required = {
    "id", "op", "fingerprint", "epoch", "cache", "status", "degraded",
    "retries", "rows", "scanned", "bindings", "plan_ms", "exec_ms",
    "total_ms", "start_us",
}
# QueryOpName's values (src/obs/query_log.cc). QueryEngine is the one
# execution entry point, so a record under any other op name means a
# second record path has crept back in.
ops = {
    "engine.execute", "session.synthesize", "session.refine",
    "session.exclude", "session.slice", "snapshot.save", "snapshot.load",
}
n = 0
with open(sys.argv[1]) as f:
    for lineno, line in enumerate(f, 1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"line {lineno}: invalid JSON: {e}")
        missing = required - rec.keys()
        if missing:
            sys.exit(f"line {lineno}: missing keys {sorted(missing)}")
        if rec["op"] not in ops:
            sys.exit(f"line {lineno}: unknown op {rec['op']!r}")
        n += 1
print(f"server_smoke: query log OK ({n} records)")
EOF

echo "server_smoke: OK (port $PORT)"
