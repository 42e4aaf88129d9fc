#!/usr/bin/env sh
# CI smoke test for the network service: boot `synergy server`, poison
# a line over the wire, drive a `synergy load` mix against it (so the
# traffic includes poisoned-line reads), scrape /metrics for the
# per-RPC series, and assert a clean SIGTERM shutdown.
#
# Usage: scripts/server_smoke.sh [addr] [metrics_addr] [duration]
set -eu

cd "$(dirname "$0")/.."
ADDR="${1:-127.0.0.1:7491}"
MADDR="${2:-127.0.0.1:9478}"
DURATION="${3:-5s}"
TOKEN="smoke-token"
LOAD_OUT="$(mktemp)"
METRICS_OUT="$(mktemp)"
BIN="$(mktemp -d)"
trap 'rm -rf "$LOAD_OUT" "$METRICS_OUT" "$BIN"' EXIT

go build -o "$BIN/synergy" ./cmd/synergy
"$BIN/synergy" server -addr "$ADDR" -metrics "$MADDR" -allow-inject \
    -tenant "smoke:$TOKEN:1024:4" &
SRV_PID=$!

up=0
for _ in $(seq 1 50); do
    if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
        up=1
        break
    fi
    sleep 0.2
done
if [ "$up" != 1 ]; then
    echo "server_smoke: server never came up on $ADDR" >&2
    kill "$SRV_PID" 2>/dev/null || true
    exit 1
fi

# Degraded-mode wire contract: a double-chip fault fails closed (500,
# code "attack"), after which the line fast-fails as poisoned (410).
AUTH="Authorization: Bearer $TOKEN"
curl -fsS -X POST -H "$AUTH" -d '{"line":9,"chips":[2,5],"mask":255}' \
    "http://$ADDR/v1/inject" >/dev/null
S1="$(curl -s -o /dev/null -w '%{http_code}' -X POST -H "$AUTH" -d '{"line":9}' "http://$ADDR/v1/read")"
S2="$(curl -s -o /dev/null -w '%{http_code}' -X POST -H "$AUTH" -d '{"line":9}' "http://$ADDR/v1/read")"
if [ "$S1" != "500" ] || [ "$S2" != "410" ]; then
    echo "server_smoke: poison lifecycle returned $S1 then $S2, want 500 then 410" >&2
    kill "$SRV_PID" 2>/dev/null || true
    exit 1
fi
# Missing token must be refused.
S3="$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"line":0}' "http://$ADDR/v1/read")"
if [ "$S3" != "401" ]; then
    echo "server_smoke: unauthenticated read returned $S3, want 401" >&2
    kill "$SRV_PID" 2>/dev/null || true
    exit 1
fi

# Drive the mix — reads, writes, batches — against the keyspace that
# still holds the poisoned line.
"$BIN/synergy" load -addr "$ADDR" -token "$TOKEN" -duration "$DURATION" \
    -workers 8 -read-frac 0.8 -batch-frac 0.2 -json >"$LOAD_OUT"

curl -fsS "http://$MADDR/metrics" >"$METRICS_OUT"

python3 - "$LOAD_OUT" "$METRICS_OUT" <<'EOF'
import json, re, sys

rep = json.load(open(sys.argv[1]))
assert rep["ops"] > 0, "load generator issued no ops"
assert rep["other_errors"] == 0, f"unexpected errors: {rep['other_errors']}"
for op in ("rpc_read", "rpc_write"):
    s = rep["per_op"][op]
    assert s["count"] > 0, f"no {op} ops"
    assert 0 < s["p50_us"] <= s["p99_us"], f"bad latency quantiles for {op}: {s}"
print(f"server_smoke: {rep['ops']} ops at {rep['throughput_ops_sec']:.0f}/s, "
      f"rpc_read p99 {rep['per_op']['rpc_read']['p99_us']:.0f}us, "
      f"{rep['fail_closed']} fail-closed")

text = open(sys.argv[2]).read()
for op in ("rpc_read", "rpc_write", "rpc_read_batch", "rpc_write_batch", "rpc_rejected"):
    assert re.search(rf'synergy_ops_total\{{op="{op}"\}} \d+', text), f"missing ops series for {op}"
assert re.search(r'synergy_ops_total\{op="rpc_read"\} [1-9]', text), "rpc_read counter not advancing"
assert re.search(r'synergy_op_latency_seconds_count\{op="rpc_read"\} [1-9]', text), \
    "rpc_read latency histogram empty"
assert re.search(r'synergy_poison_events_total\{rank="\d+",event="poisoned"\} [1-9]', text), \
    "poison event not visible in /metrics"
print("server_smoke: per-RPC metrics series present")
EOF

# Clean shutdown: SIGTERM must drain and exit 0.
kill -TERM "$SRV_PID"
if ! wait "$SRV_PID"; then
    echo "server_smoke: server exited non-zero on SIGTERM" >&2
    exit 1
fi
echo "server_smoke: PASS"
