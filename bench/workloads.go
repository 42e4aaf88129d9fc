package main

import "synergy/internal/core"

// The four workloads. All run core.Config{Ranks: 4} on 64-byte lines
// from one goroutine, 70/30 reads/writes by operation, with the same mix
// of single and 32-line batch calls. README.md gives the reasoning; the
// `why` strings are the one-line version BENCHMARK.json carries.
//
// shape sizes a slice to a few milliseconds: long enough that one clock
// pair per segment costs nothing and that the program's own periodic
// work (metadata-cache evictions, garbage collections) lands in every
// slice, short enough that a run has on the order of a thousand slices
// and a tenth of them are undisturbed. slices is the fixed length of
// the measured stream — two commits do identical work — sized on a
// 2-vCPU sandbox so that the measured phase lasts about runSeconds.
var workloads = []*workload{
	{
		name:   "engine_hot",
		why:    "1024-line hot set inside the metadata cache: ctrenc+gmac are 2/3 of an op, tree/dimm/server idle",
		cfg:    core.Config{DataLines: 65536, Ranks: 4, MetadataCache: 4096},
		hotSet: 1024,
		shape:  shape{reads: 2100, writes: 900, readBatches: 21, writeBatches: 9},
		warm:   100,
		slices: 9000,
	},
	{
		name:   "engine_cold",
		why:    "uniform over 262144 lines with a 512-entry metadata cache: tree walk, eviction and dimm traffic dominate",
		cfg:    core.Config{DataLines: 262144, Ranks: 4, MetadataCache: 512},
		shape:  shape{reads: 280, writes: 120, readBatches: 7, writeBatches: 3},
		warm:   10,
		slices: 2100,
	},
	{
		name:     "engine_degraded",
		why:      "engine_hot with one chip dead on every rank: every read takes the MAC-verified reconstruction path",
		cfg:      core.Config{DataLines: 65536, Ranks: 4, MetadataCache: 4096},
		hotSet:   1024,
		degraded: true,
		shape:    shape{reads: 2100, writes: 900, readBatches: 21, writeBatches: 9},
		warm:     100,
		slices:   6800,
	},
	{
		name:   "rpc_mixed",
		why:    "same array behind synergy-server on loopback, one closed-loop client: net/http, JSON and the client are the op",
		cfg:    core.Config{DataLines: 65536, Ranks: 4, MetadataCache: 4096},
		hotSet: 1024,
		rpc:    true,
		shape:  shape{reads: 560, writes: 240, readBatches: 140, writeBatches: 60},
		warm:   3,
		slices: 320,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
