#!/usr/bin/env bash
# End-to-end exercise of the query telemetry layer against a real build:
# run the quickstart with the JSONL query-log sink and the Chrome-trace
# sink enabled, then require every emitted JSONL line to be a valid JSON
# object carrying the full record schema and a known op, and the trace to
# be valid JSON.
# Outputs stay under <build-dir>/query_log_smoke so CI can upload them as
# an artifact when validation fails.
set -euo pipefail

BUILD_DIR="${1:?usage: query_log_smoke.sh <build-dir>}"
QUICKSTART="$BUILD_DIR/examples/quickstart"
WORK="$BUILD_DIR/query_log_smoke"
rm -rf "$WORK"
mkdir -p "$WORK"

RE2XOLAP_QUERY_LOG="$WORK/query_log.jsonl" \
RE2XOLAP_TRACE="$WORK/trace.json" \
  "$QUICKSTART" > "$WORK/quickstart.out"

test -s "$WORK/query_log.jsonl" || {
  echo "query_log_smoke: quickstart wrote no query-log lines" >&2
  exit 1
}

python3 - "$WORK/query_log.jsonl" "$WORK/trace.json" <<'EOF'
import json, sys

log_path, trace_path = sys.argv[1], sys.argv[2]
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
last_id = 0
with open(log_path) as f:
    for lineno, line in enumerate(f, 1):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            sys.exit(f"line {lineno}: invalid JSON: {e}")
        if not isinstance(rec, dict):
            sys.exit(f"line {lineno}: not a JSON object")
        missing = required - rec.keys()
        if missing:
            sys.exit(f"line {lineno}: missing keys {sorted(missing)}")
        if rec["op"] not in ops:
            sys.exit(f"line {lineno}: unknown op {rec['op']!r}")
        if rec["id"] <= last_id:
            sys.exit(f"line {lineno}: ids not strictly increasing")
        last_id = rec["id"]
        n += 1
if n == 0:
    sys.exit("query log is empty")

with open(trace_path) as f:
    trace = json.load(f)
if not trace.get("traceEvents"):
    sys.exit("trace has no events")

print(f"query_log_smoke: {n} valid records, "
      f"{len(trace['traceEvents'])} trace events")
EOF
