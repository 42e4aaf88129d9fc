#!/usr/bin/env sh
# CI smoke test for the live metrics endpoint: start a chaos run
# serving telemetry, scrape /metrics mid-run, and validate that the
# Prometheus text exposition parses and carries the per-chip
# correction counters, the per-stage read-latency histograms, and live
# metadata-cache and fast-read counts.
#
# Usage: scripts/metrics_smoke.sh [addr] [duration]
set -eu

cd "$(dirname "$0")/.."
ADDR="${1:-127.0.0.1:9477}"
DURATION="${2:-10s}"
OUT="$(mktemp)"
BIN="$(mktemp -d)"
trap 'rm -rf "$OUT" "$BIN"' EXIT

go build -o "$BIN/synergy" ./cmd/synergy
"$BIN/synergy" chaos -duration "$DURATION" -permanent -metrics "$ADDR" &
CHAOS_PID=$!

# chaos binds the listener before traffic starts; poll until it is up.
up=0
for _ in $(seq 1 50); do
    if curl -fsS "http://$ADDR/metrics" >/dev/null 2>&1; then
        up=1
        break
    fi
    sleep 0.2
done
if [ "$up" != 1 ]; then
    echo "metrics_smoke: endpoint never came up on $ADDR" >&2
    kill "$CHAOS_PID" 2>/dev/null || true
    exit 1
fi

# Scrape while the chaos workers are mid-run.
sleep 1
curl -fsS "http://$ADDR/metrics" >"$OUT"

python3 - "$OUT" <<'EOF'
import re, sys

path = sys.argv[1]
types = {}
samples = []
for ln in open(path):
    ln = ln.rstrip("\n")
    if not ln:
        continue
    if ln.startswith("# TYPE "):
        parts = ln.split(" ")
        assert len(parts) == 4, f"malformed TYPE line: {ln!r}"
        types[parts[2]] = parts[3]
        continue
    if ln.startswith("#"):
        continue
    m = re.match(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"            # metric name
        r"(\{[a-zA-Z0-9_]+=\"[^\"]*\""            # first label
        r"(,[a-zA-Z0-9_]+=\"[^\"]*\")*\})?"       # more labels
        r" (-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?|\+Inf|NaN)$",
        ln,
    )
    assert m, f"unparseable sample line: {ln!r}"
    samples.append((m.group(1), ln))

# Every sample's family (histogram series share the base name) must be
# declared with a TYPE line.
for name, ln in samples:
    base = re.sub(r"_(bucket|sum|count)$", "", name)
    assert name in types or base in types, f"sample without TYPE: {ln!r}"

text = "".join(ln + "\n" for _, ln in samples)
assert types.get("synergy_corrections_total") == "counter", "missing per-chip correction counter family"
assert re.search(r'synergy_corrections_total\{rank="\d+",chip="\d+"\} \d+', text), \
    "no per-chip correction sample"
assert types.get("synergy_read_stage_seconds") == "histogram", "missing read-stage histogram family"
assert re.search(r'synergy_read_stage_seconds_bucket\{stage="mac_verify",le="[^"]+"\} \d+', text), \
    "no mac_verify stage bucket sample"
assert re.search(r'synergy_ops_total\{op="read"\} [1-9]', text), \
    "read counter not advancing mid-run"
# Per-rank families are read from the engine at scrape time; these two
# must be live mid-run, not only at sampled operations.
assert re.search(r'synergy_metacache_lookups_total\{rank="\d+",result="hit"\} [1-9]', text), \
    "metadata-cache hits not visible mid-run"
assert re.search(r'synergy_read_fast_total\{rank="\d+"\} [1-9]', text), \
    "fast reads not visible mid-run"

print(f"metrics_smoke: {len(samples)} samples across {len(types)} families, exposition OK")
EOF

wait "$CHAOS_PID"
echo "metrics_smoke: PASS"
