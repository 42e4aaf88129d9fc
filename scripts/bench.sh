#!/usr/bin/env sh
# Run the crypto hot-path benchmarks, the write-path benchmarks, the
# reliability-engine throughput comparison, the degraded-mode read
# benchmarks, the telemetry overhead pair and the network-service load
# run, capturing machine-readable results in BENCH_crypto.json,
# BENCH_writepath.json, BENCH_reliability.json, BENCH_chaos.json,
# BENCH_persist.json, BENCH_telemetry.json and BENCH_server.json at the
# repo root.
#
# Usage: scripts/bench.sh [count]
#   count           -count value per crypto benchmark (default 5)
#   REL_TRIALS      Monte Carlo trials per reliability run (default 2000000)
#   SRV_DURATION    synergy-load run length (default 10s)
#   SRV_ADDR        synergy-server address for the load run (default 127.0.0.1:7493)
set -eu

cd "$(dirname "$0")/.."
COUNT="${1:-5}"
OUT="BENCH_crypto.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run='^$' -bench='BenchmarkGFMul|BenchmarkSumLine|BenchmarkSum56|BenchmarkPadGen|BenchmarkReadHotPath|BenchmarkReadBatchHotPath|BenchmarkWriteHotPath' \
    -benchmem -count="$COUNT" \
    ./internal/gmac/ ./internal/ctrenc/ ./internal/core/ | tee "$RAW"

go run ./scripts/benchjson <"$RAW" >"$OUT"
echo "wrote $OUT"

# Write path: the write-back metadata cache against the default config
# (every write flushes its path), the batched pipelines, and the
# per-stage write breakdown.
# Budget: BenchmarkWriteHotPath ≤ 2× BenchmarkReadHotPath ns/op and
# both batch benchmarks at 0 allocs/op (DESIGN.md "Write path &
# metadata cache").
WP_OUT="BENCH_writepath.json"
WP_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$WP_RAW"' EXIT
go test -run='^$' \
    -bench='BenchmarkReadHotPath$|BenchmarkWriteHotPath$|BenchmarkWriteDefaultHotPath$|BenchmarkWriteBatchHotPath|BenchmarkReadBatchHotPath|BenchmarkWriteStageBreakdown' \
    -benchmem -count="$COUNT" ./internal/core/ | tee "$WP_RAW"
go run ./scripts/benchjson <"$WP_RAW" >"$WP_OUT"
echo "wrote $WP_OUT"

# Reliability engine: same seed and trial budget serially and with an
# 8-worker pool. Per-trial deterministic seeding guarantees identical
# results; the JSON records trials_per_sec for the bench trajectory.
REL_TRIALS="${REL_TRIALS:-2000000}"
REL_OUT="BENCH_reliability.json"
{
    printf '[\n'
    go run ./cmd/synergy-faultsim -json -trials "$REL_TRIALS" -workers 1
    printf ',\n'
    go run ./cmd/synergy-faultsim -json -trials "$REL_TRIALS" -workers 8
    printf ']\n'
} >"$REL_OUT"
echo "wrote $REL_OUT"

# Degraded-mode service: what a read costs while the engine is
# reconstructing, condemned (§IV-A preemptive), or poisoned — the
# fault-tolerance trajectory next to the clean hot path.
CHAOS_OUT="BENCH_chaos.json"
CHAOS_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$WP_RAW" "$CHAOS_RAW"' EXIT
go test -run='^$' -bench='BenchmarkDegradedRead' -benchmem -count="$COUNT" \
    ./internal/core/ | tee "$CHAOS_RAW"
go run ./scripts/benchjson <"$CHAOS_RAW" >"$CHAOS_OUT"
echo "wrote $CHAOS_OUT"

# Durability: what a sealed checkpoint and a verified restore cost.
# Both benchmarks SetBytes the snapshot image, so the JSON carries
# MB/s alongside ns/op — the number that says how long a quiesce
# window a given array size buys.
PERSIST_OUT="BENCH_persist.json"
PERSIST_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$WP_RAW" "$CHAOS_RAW" "$PERSIST_RAW"' EXIT
go test -run='^$' -bench='BenchmarkSnapshot$|BenchmarkRestore$' -benchmem \
    -count="$COUNT" ./internal/core/ | tee "$PERSIST_RAW"
go run ./scripts/benchjson <"$PERSIST_RAW" >"$PERSIST_OUT"
echo "wrote $PERSIST_OUT"

# Telemetry overhead: the same steady-state hot paths with a live
# registry recording (counters exact, stages sampled 1-in-64) next to
# the uninstrumented baseline. Budget: instrumented read within 5% of
# disabled and still 0 allocs/op (DESIGN.md §11). Rounds are
# interleaved (-count=1 per round) instead of one grouped -count run:
# grouped, a load spike mid-run lands entirely on whichever side runs
# later and fakes an overhead regression.
TEL_OUT="BENCH_telemetry.json"
TEL_RAW="$(mktemp)"
trap 'rm -f "$RAW" "$WP_RAW" "$CHAOS_RAW" "$PERSIST_RAW" "$TEL_RAW"' EXIT
i=0
while [ "$i" -lt "$COUNT" ]; do
    go test -run='^$' \
        -bench='BenchmarkReadHotPath$|BenchmarkWriteHotPath$|BenchmarkReadHotPathInstrumented|BenchmarkWriteHotPathInstrumented' \
        -benchmem -count=1 ./internal/core/ | tee -a "$TEL_RAW"
    i=$((i + 1))
done
go run ./scripts/benchjson <"$TEL_RAW" >"$TEL_OUT"
echo "wrote $TEL_OUT"

# Network service: boot synergy-server, drive the closed-loop mix
# (reads, writes, batches) against one tenant, and store the per-op
# p50/p99 service latencies and throughput. This is the end-to-end
# SLO number the /metrics endpoint reports live under the rpc_* ops.
SRV_OUT="BENCH_server.json"
SRV_ADDR="${SRV_ADDR:-127.0.0.1:7493}"
SRV_DURATION="${SRV_DURATION:-10s}"
go build -o /tmp/synergy-server-bench ./cmd/synergy-server
/tmp/synergy-server-bench -addr "$SRV_ADDR" -tenant "bench:bench-token:4096:4" &
SRV_PID=$!
trap 'rm -f "$RAW" "$WP_RAW" "$CHAOS_RAW" "$PERSIST_RAW" "$TEL_RAW"; kill "$SRV_PID" 2>/dev/null || true' EXIT
i=0
while ! curl -fsS "http://$SRV_ADDR/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "bench: synergy-server never came up on $SRV_ADDR" >&2
        exit 1
    fi
    sleep 0.2
done
go run ./cmd/synergy-load -addr "$SRV_ADDR" -token bench-token \
    -duration "$SRV_DURATION" -workers 16 -read-frac 0.9 -batch-frac 0.1 -json >"$SRV_OUT"
kill -TERM "$SRV_PID"
wait "$SRV_PID" || true
echo "wrote $SRV_OUT"

# Every results file this script just wrote must satisfy the same
# schema check CI runs against the committed copies.
go run ./scripts/benchjson -check BENCH_*.json
