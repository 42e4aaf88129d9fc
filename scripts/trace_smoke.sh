#!/usr/bin/env sh
# CI smoke test for the observability surface: boot `synergy server`
# with deep tracing on, drive a poison fast-fail and a corrected-error
# storm until shedding engages, and assert that
#
#   - /healthz stays 200 (liveness) while /readyz flips 503 under shed,
#   - an explicitly traced poisoned read answers 410 with
#     X-Synergy-Trace-Captured: 1, and
#   - /debug/flight retained >=1 fail_closed anomaly with stage-level
#     span events and >=1 shed anomaly.
#
# Usage: scripts/trace_smoke.sh [addr]
set -eu

cd "$(dirname "$0")/.."
ADDR="${1:-127.0.0.1:7497}"
TOKEN="smoke-token"
AUTH="Authorization: Bearer $TOKEN"
TP="traceparent: 00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
OUT="$(mktemp)"
HDRS="$(mktemp)"
BIN="$(mktemp -d)"

go build -o "$BIN/synergy" ./cmd/synergy
"$BIN/synergy" server -addr "$ADDR" \
    -tenant "smoke:$TOKEN:256:1" \
    -allow-inject -trace-sample-every 1 \
    -analyze-every 100ms -shed-min-corrections 4 -scrub-interval 0 &
SRV_PID=$!
trap 'rm -rf "$OUT" "$HDRS" "$BIN"; kill "$SRV_PID" 2>/dev/null || true' EXIT

up=0
for _ in $(seq 1 50); do
    if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
        up=1
        break
    fi
    sleep 0.2
done
if [ "$up" != 1 ]; then
    echo "trace_smoke: server never came up on $ADDR" >&2
    exit 1
fi

# Healthy baseline: alive and ready.
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/healthz")
[ "$code" = 200 ] || { echo "trace_smoke: /healthz = $code, want 200" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/readyz")
[ "$code" = 200 ] || { echo "trace_smoke: /readyz = $code at boot, want 200" >&2; exit 1; }

# Poison: write a line, plant an uncorrectable double-chip fault, and
# read it. The first read detects the double fault, fails closed, and
# poisons the line; a second read with an explicit traceparent must
# fast-fail 410 and confirm the trace was retained.
data=$(printf 'A%.0s' $(seq 1 64) | base64 | tr -d '\n')
curl -fsS -X POST -H "$AUTH" -d "{\"line\":5,\"data\":\"$data\"}" \
    "http://$ADDR/v1/write" >/dev/null
curl -fsS -X POST -H "$AUTH" -d '{"line":5,"chips":[0,1],"mask":1}' \
    "http://$ADDR/v1/inject" >/dev/null
code=$(curl -s -o /dev/null -w '%{http_code}' \
    -X POST -H "$AUTH" -d '{"line":5}' "http://$ADDR/v1/read")
case "$code" in
4??|5??) ;;
*) echo "trace_smoke: double-fault read = $code, want fail-closed" >&2; exit 1 ;;
esac
code=$(curl -s -o /dev/null -D "$HDRS" -w '%{http_code}' \
    -X POST -H "$AUTH" -H "$TP" -d '{"line":5}' "http://$ADDR/v1/read")
[ "$code" = 410 ] || { echo "trace_smoke: poisoned read = $code, want 410" >&2; exit 1; }
if ! grep -qi '^x-synergy-trace-captured: 1' "$HDRS"; then
    echo "trace_smoke: poisoned read not captured by the flight recorder" >&2
    cat "$HDRS" >&2
    exit 1
fi

# Storm: correctable single-chip faults spread over >=3 chips (the
# suspected-DoS signature) until a data read is refused 503/shedding.
# While shedding is engaged the server must stay alive but not ready.
shed=0
flipped=0
i=0
while [ "$i" -lt 200 ]; do
    i=$((i + 1))
    line=$((20 + i % 4))
    chip=$((1 + 2 * (i % 4)))
    curl -fsS -X POST -H "$AUTH" \
        -d "{\"line\":$line,\"chips\":[$chip],\"mask\":1}" \
        "http://$ADDR/v1/inject" >/dev/null
    code=$(curl -s -o /dev/null -w '%{http_code}' \
        -X POST -H "$AUTH" -d "{\"line\":$line}" "http://$ADDR/v1/read")
    if [ "$code" = 503 ]; then
        shed=1
        rcode=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/readyz")
        [ "$rcode" = 503 ] && flipped=1
        hcode=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/healthz")
        [ "$hcode" = 200 ] || { echo "trace_smoke: /healthz = $hcode under shed, want 200" >&2; exit 1; }
        break
    fi
done
[ "$shed" = 1 ] || { echo "trace_smoke: shedding never engaged under the storm" >&2; exit 1; }
[ "$flipped" = 1 ] || { echo "trace_smoke: /readyz did not flip to 503 while shedding" >&2; exit 1; }

# The flight recorder must have retained both anomalies — the poison
# with engine stage-level span events, and at least one shed refusal.
curl -fsS "http://$ADDR/debug/flight" >"$OUT"

python3 - "$OUT" <<'EOF'
import json, sys

flight = json.load(open(sys.argv[1]))
records = flight["records"]
assert records, "flight recorder retained nothing"

poison = [r for r in records if "fail_closed" in (r.get("anomalies") or [])]
assert poison, f"no fail_closed anomaly among {len(records)} records"
staged = [r for r in poison
          if any(e.get("kind") == "stage" for e in (r.get("events") or []))]
assert staged, "fail_closed record has no stage-level span events"
assert any(r["trace_id"] == "0123456789abcdef0123456789abcdef" for r in poison), \
    "explicit traceparent did not round-trip into the captured record"

shed = [r for r in records if "shed" in (r.get("anomalies") or [])]
assert shed, f"no shed anomaly among {len(records)} records"

stats = flight["stats"]
assert stats["captured"] >= 2, f"captured {stats['captured']}, want >= 2"
print(f"trace_smoke: {len(records)} records retained "
      f"({len(poison)} fail_closed, {len(shed)} shed), span events OK")
EOF

kill -TERM "$SRV_PID"
wait "$SRV_PID" || true
echo "trace_smoke: PASS"
