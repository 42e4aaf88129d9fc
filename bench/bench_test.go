package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// tiny shrinks a workload to something a unit test can afford while
// keeping what makes it that workload: hot set inside the metadata
// cache or far outside it, the dead chip, the wire.
func tiny(w *workload) *workload {
	v := *w
	v.cfg.DataLines /= 16
	if v.hotSet > 0 {
		v.hotSet = 128
	} else {
		v.cfg.MetadataCache = 64
	}
	v.shape = shape{reads: 70, writes: 30, readBatches: 7, writeBatches: 3}
	v.warm = 2
	return &v
}

type outcome struct {
	hash   uint64
	counts metrics
	failed int
}

func runTiny(t *testing.T, w *workload, seed uint64) outcome {
	t.Helper()
	f, err := setup(tiny(w), seed)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	m, err := f.measure(12)
	if err != nil {
		t.Fatal(err)
	}
	if f.corrupt > 0 {
		t.Fatalf("%s: %d lines read back different from the shadow model", w.name, f.corrupt)
	}
	ms := metrics{}
	countMetrics(ms, f.w, m)
	return outcome{f.st.sum, ms, f.failed}
}

// The same seed must give the same operation stream and, because the
// engine is deterministic under one goroutine, bit-identical count-based
// layer metrics; another seed must give another stream.
func TestSameSeedSameStreamSameCounts(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b, c := runTiny(t, w, 7), runTiny(t, w, 7), runTiny(t, w, 8)
			if a.hash != b.hash {
				t.Errorf("stream hash differs for one seed: %x vs %x", a.hash, b.hash)
			}
			if a.hash == c.hash {
				t.Errorf("stream hash %x is the same for seeds 7 and 8", a.hash)
			}
			if !reflect.DeepEqual(a.counts, b.counts) {
				t.Errorf("count metrics differ for one seed:\n%v\n%v", a.counts, b.counts)
			}
			if a.failed != 0 {
				t.Errorf("%d operations failed, want 0", a.failed)
			}
			switch share := a.counts["core.fast_read_share"].Value; {
			case w.degraded && share != 0:
				t.Errorf("fast_read_share = %v with a dead chip, want 0", share)
			case w.hotSet > 0 && !w.degraded && share < 0.99:
				t.Errorf("fast_read_share = %v on a hot set inside the cache, want ≥ 0.99", share)
			}
		})
	}
}

// BENCHMARK.json is what the driver reads and report.go is what the
// program prints: the names, units and workloads have to agree.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Why string }
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []def) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d entries in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d in BENCHMARK.json, the streams are sized for %d", spec.RunSeconds, runSeconds)
	}
	same("end_to_end", spec.EndToEnd, endToEndDefs)
	same("per_layer", spec.PerLayer, perLayerDefs)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
}
