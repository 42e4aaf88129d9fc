#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository
# root: bench/run.sh [-workload NAME] [-seed N] [-trace 0|1] [-selfcheck].
# Everything the build writes (binary, go build cache, temporary files)
# stays under .bench_build in the checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local
# bench/ is a module of its own, so the repository's `go vet ./...` and
# `go test ./...` never reach it. A checkout that has no binary yet runs
# them here before it builds one: whatever gates on this benchmark also
# gates on its determinism test and on BENCHMARK.json agreeing with the
# program.
if [ ! -x "$build/synergy-bench" ]; then
	go -C "$root/bench" vet . >&2
	go -C "$root/bench" test . >&2
fi
go -C "$root/bench" build -o "$build/synergy-bench" .
# A cold build leaves hundreds of MB of dirty pages, and the kernel
# writing them back slowed rpc_mixed by a third for the next half minute.
sync -f "$build"
exec "$build/synergy-bench" "$@"
