#!/usr/bin/env sh
# CI smoke test for crash-safe durability: boot `synergy server` with a
# durable -data directory, write a known pattern, poison a line over
# the wire, checkpoint via POST /v1/snapshot, then SIGKILL the process
# with load still in flight (the crash — no drain, no shutdown
# checkpoint). A fresh process on the same directory must restore the
# checkpoint: pre-crash data bit-exact, post-snapshot writes gone,
# the poisoned line still fail-closed. Finally a tampered snapshot
# file must refuse the next boot with a non-zero exit — never serve.
#
# Usage: scripts/crash_smoke.sh [addr] [load_duration]
set -eu

cd "$(dirname "$0")/.."
ADDR="${1:-127.0.0.1:7495}"
LOAD_DURATION="${2:-2s}"
TOKEN="crash-token"
DATA="$(mktemp -d)"
BIN="$(mktemp -d)"
trap 'rm -rf "$DATA" "$BIN"; kill "$SRV_PID" 2>/dev/null || true' EXIT
SRV_PID=""

go build -o "$BIN/synergy" ./cmd/synergy

start_server() {
    "$BIN/synergy" server -addr "$ADDR" -data "$DATA" -allow-inject \
        -tenant "crash:$TOKEN:256:2" &
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
        echo "crash_smoke: server never came up on $ADDR" >&2
        exit 1
    fi
}

# Phase 1: seed a keyspace, poison a line, checkpoint, diverge.
start_server
python3 - "$ADDR" "$TOKEN" <<'EOF'
import base64, json, sys, urllib.request

addr, token = sys.argv[1], sys.argv[2]

def rpc(path, body, expect=200):
    req = urllib.request.Request(
        f"http://{addr}{path}", data=json.dumps(body).encode(),
        headers={"Authorization": f"Bearer {token}"}, method="POST")
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as e:
        return e.code, json.load(e)

def fill(i):
    return bytes(((i * 7 + j) & 0xFF) for j in range(64))

for i in range(32):
    st, _ = rpc("/v1/write", {"line": i, "data": base64.b64encode(fill(i)).decode()})
    assert st == 200, f"write {i}: {st}"

# Poison line 9: double-chip transient fails closed, then fast-fails.
st, _ = rpc("/v1/inject", {"line": 9, "chips": [2, 5], "mask": 255})
assert st == 200, f"inject: {st}"
st, body = rpc("/v1/read", {"line": 9})
assert st == 500 and body["code"] == "attack", f"poisoning read: {st} {body}"
st, body = rpc("/v1/read", {"line": 9})
assert st == 410 and body["code"] == "poisoned", f"poisoned read: {st} {body}"

st, _ = rpc("/v1/snapshot", {})
assert st == 200, f"snapshot: {st}"

# Post-snapshot divergence: the crash must erase this write.
st, _ = rpc("/v1/write", {"line": 0, "data": base64.b64encode(b"\xEE" * 64).decode()})
assert st == 200, f"divergent write: {st}"
print("crash_smoke: seeded 32 lines, poisoned line 9, checkpoint committed")
EOF

# The crash: SIGKILL with load in flight. No drain, no shutdown
# checkpoint — only the sealed snapshot survives.
"$BIN/synergy" load -addr "$ADDR" -token "$TOKEN" \
    -duration "$LOAD_DURATION" -workers 4 -read-frac 0.5 >/dev/null 2>&1 &
LOAD_PID=$!
sleep 0.5
kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
wait "$LOAD_PID" 2>/dev/null || true
SRV_PID=""

# Phase 2: reboot on the same directory; the snapshot must restore.
start_server
python3 - "$ADDR" "$TOKEN" <<'EOF'
import base64, json, sys, urllib.request

addr, token = sys.argv[1], sys.argv[2]

def rpc(path, body):
    req = urllib.request.Request(
        f"http://{addr}{path}", data=json.dumps(body).encode(),
        headers={"Authorization": f"Bearer {token}"}, method="POST")
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as e:
        return e.code, json.load(e)

def fill(i):
    return bytes(((i * 7 + j) & 0xFF) for j in range(64))

for i in range(32):
    if i == 9:
        continue
    st, body = rpc("/v1/read", {"line": i})
    assert st == 200, f"read {i} after restore: {st} {body}"
    got = base64.b64decode(body["data"])
    assert got == fill(i), f"line {i} not bit-exact after restore (SDC)"

# Line 0's post-snapshot write must be gone (crash semantics).
st, body = rpc("/v1/read", {"line": 0})
assert base64.b64decode(body["data"]) == fill(0), \
    "post-snapshot write survived the crash: restore served divergent data"

# Poison must survive the round trip: still fail-closed, never garbage.
st, body = rpc("/v1/read", {"line": 9})
assert st == 410 and body["code"] == "poisoned", \
    f"poisoned line served after restore: {st} {body}"
print("crash_smoke: restore verified — 31 lines bit-exact, poison fail-closed")
EOF

# Clean SIGTERM: drains and checkpoints on the way out.
kill -TERM "$SRV_PID"
if ! wait "$SRV_PID"; then
    echo "crash_smoke: server exited non-zero on SIGTERM" >&2
    SRV_PID=""
    exit 1
fi
SRV_PID=""

# Phase 3: tamper with the sealed snapshot. The next boot must refuse
# (typed restore error, non-zero exit) rather than serve unverified
# state.
python3 - "$DATA/crash.snap" <<'EOF'
import sys
path = sys.argv[1]
img = bytearray(open(path, "rb").read())
assert len(img) > 0, "no snapshot file written on shutdown"
img[len(img) // 2] ^= 0x20
open(path, "wb").write(bytes(img))
print(f"crash_smoke: flipped one bit in {path} ({len(img)} bytes)")
EOF
if "$BIN/synergy" server -addr "$ADDR" -data "$DATA" \
    -tenant "crash:$TOKEN:256:2" >/dev/null 2>&1; then
    echo "crash_smoke: server booted from a tampered snapshot" >&2
    exit 1
fi
echo "crash_smoke: tampered snapshot refused boot (non-zero exit)"
echo "crash_smoke: PASS"
