package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// def names one metric. The two lists below are the benchmark's
// vocabulary; BENCHMARK.json repeats them and a test keeps the two in
// step.
type def struct{ name, unit string }

var endToEndDefs = []def{
	{"lines_per_s", "1/s"},
	{"read_ns", "ns"},
	{"write_ns", "ns"},
	{"setup_s", "s"},
}

var perLayerDefs = []def{
	{"ctrenc.pad_ns", "ns"},
	{"ctrenc.pad_batch_line_ns", "ns"},
	{"gmac.sumline_ns", "ns"},
	{"gmac.sum56_ns", "ns"},
	{"integrity.node_verify_ns", "ns"},
	{"integrity.node_seal_ns", "ns"},
	{"dimm.readline_ns", "ns"},
	{"dimm.writeline_ns", "ns"},
	{"dimm.reads_per_line", "count"},
	{"dimm.writes_per_line", "count"},
	{"core.mac_per_read", "count"},
	{"core.fast_read_share", "ratio"},
	{"core.escalations_per_read", "count"},
	{"core.preemptive_share", "ratio"},
	{"core.reconstruct_attempts_per_read", "count"},
	{"core.metacache_hit_rate", "ratio"},
	{"core.meta_writebacks_per_write", "count"},
	{"core.read_self_ns", "ns"},
	{"core.write_self_ns", "ns"},
	{"core.read_batch_line_ns", "ns"},
	{"core.write_batch_line_ns", "ns"},
	{"core.allocs_per_line", "count"},
	{"core.flush_ms", "ms"},
	{"server.handler_read_ns", "ns"},
	{"server.handler_write_ns", "ns"},
	{"server.handler_read_batch_line_ns", "ns"},
	{"server.handler_write_batch_line_ns", "ns"},
	{"server.engine_read_ns", "ns"},
	{"server.transport_read_ns", "ns"},
	{"server.read_batch_line_ns", "ns"},
	{"server.write_batch_line_ns", "ns"},
	{"server.allocs_per_req", "count"},
	{"server.alloc_bytes_per_req", "B"},
	{"server.gc_pause_ns_per_req", "ns"},
	{"server.read_p99_ns", "ns"},
	{"server.read_p99_samples", "count"},
	{"server.write_p99_ns", "ns"},
	{"server.write_p99_samples", "count"},
	{"server.rejected_share", "ratio"},
	{"telemetry.read_overhead_ns", "ns"},
	{"telemetry.write_overhead_ns", "ns"},
	{"harness.noise_ratio", "ratio"},
	{"harness.trace_overhead_ratio", "ratio"},
	{"harness.timer_ns", "ns"},
	{"harness.clock_ratio", "ratio"},
	{"harness.lines_per_s_raw", "1/s"},
	{"harness.read_raw_ns", "ns"},
	{"harness.write_raw_ns", "ns"},
	{"harness.setup_raw_s", "s"},
	{"harness.read_mean_ns", "ns"},
	{"harness.write_mean_ns", "ns"},
	{"harness.slices", "count"},
}

var units = func() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]def(nil), endToEndDefs...), perLayerDefs...) {
		u[d.name] = d.unit
	}
	return u
}()

// set records a metric under its declared unit. A name outside the two
// lists is a bug in the harness, not an input error.
func (ms metrics) set(name string, value float64) {
	unit, ok := units[name]
	if !ok {
		panic("bench: undeclared metric " + name)
	}
	ms[name] = metric{Value: value, Unit: unit}
}

// zeroRest reports every declared per-layer metric the workload did not
// measure as 0: the layer did no work there (README.md, "Which metric
// is measured where").
func (ms metrics) zeroRest() {
	for _, d := range perLayerDefs {
		if _, ok := ms[d.name]; !ok {
			ms.set(d.name, 0)
		}
	}
}

// header is the provenance of a run: enough to tell whether two sets of
// numbers may be compared at all.
type header struct {
	GoVersion string         `json:"go_version"`
	CPUModel  string         `json:"cpu_model"`
	NumCPU    int            `json:"nproc"`
	Commit    string         `json:"commit"`
	Seed      uint64         `json:"seed"`
	OpsPerRun map[string]int `json:"ops_per_workload"`
}

type report struct {
	Provenance header    `json:"provenance"`
	Workloads  []*result `json:"workloads"`
}

func provenance(opt options, run []*workload) header {
	h := header{
		GoVersion: runtime.Version(),
		CPUModel:  cpuModel(),
		NumCPU:    runtime.NumCPU(),
		Commit:    commit(),
		Seed:      opt.seed,
		OpsPerRun: map[string]int{},
	}
	for _, w := range run {
		h.OpsPerRun[w.name] = w.slices * w.shape.ops()
	}
	return h
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the revision the binary was built from, as the go tool
// stamped it; a checkout that is not a git repository has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// contractLine is the one-line result the driver reads: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func contractLine(res *result, traced bool) string {
	ms := res.EndToEnd
	if traced {
		ms = res.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Corrupt == 0, res.Attempted, res.Failed, ms})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}

// bounds reads each end-to-end metric's allowed worsening from
// BENCHMARK.json, the one place they are written down.
func bounds() (map[string]float64, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("selfcheck runs from the repository root: %w", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	b := map[string]float64{}
	for _, m := range spec.EndToEnd {
		b[m.Name] = m.Bound
	}
	return b, nil
}

// selfCheck runs the untraced benchmark twice, every run in a process of
// its own, and fails if any end-to-end metric of any workload moved by
// more than its bound between the two: the benchmark's first duty is to
// agree with itself.
func selfCheck(run []*workload, opt options) int {
	bound, err := bounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	opt.trace = false
	code := 0
	for _, w := range run {
		var pair [2]*result
		for i := range pair {
			if pair[i], err = isolated(w, opt); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		for _, d := range endToEndDefs {
			a, b := pair[0].EndToEnd[d.name].Value, pair[1].EndToEnd[d.name].Value
			diff := (b - a) / a
			verdict := "ok"
			if diff > bound[d.name] || -diff > bound[d.name] {
				verdict, code = "OUTSIDE BOUND", 1
			}
			fmt.Printf("%-16s %-12s %14.4f %14.4f %-4s %+7.2f%%  bound %.0f%%  %s\n",
				w.name, d.name, a, b, d.unit, 100*diff, 100*bound[d.name], verdict)
		}
		if pair[0].Failed+pair[1].Failed+pair[0].Corrupt+pair[1].Corrupt > 0 {
			fmt.Printf("%-16s failed or corrupt operations\n", w.name)
			code = 1
		}
	}
	return code
}
