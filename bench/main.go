// Command bench is the repository's one benchmark: four long workloads
// against the public APIs of internal/core and internal/server, timed
// per slice and reduced by the quiet decile, with a per-layer breakdown
// measured from outside. README.md in this directory is the manual;
// run it through bench/run.sh from the repository root.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// setupRuns is how many times a workload is set up on fresh state; the
// median is reported as setup_s and the last one is measured.
const setupRuns = 7

// runSeconds is how long the fixed streams were sized to run on a
// 2-vCPU sandbox, and BENCHMARK.json's run_seconds. The driver passes it
// as -seconds; it sets nothing, because the operation counts are
// constants, so any other value is refused.
const runSeconds = 20

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// result is everything one workload's run produced.
type result struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Slices     int     `json:"slices"`
	OpsPerRun  int     `json:"ops_per_run"`
	MeasuredS  float64 `json:"measured_s"`
	StreamHash string  `json:"stream_hash"`
	Attempted  int     `json:"ops_attempted"`
	Failed     int     `json:"ops_failed"`
	Corrupt    int     `json:"lines_corrupt"`
	EndToEnd   metrics `json:"end_to_end"`
	Harness    metrics `json:"harness"`
	PerLayer   metrics `json:"per_layer,omitempty"`
	Trace      any     `json:"trace,omitempty"`
}

// procs is the GOMAXPROCS every workload runs under. Each of them is one
// closed loop — a caller and, for rpc_mixed, the server answering it —
// with no work to run in parallel, so a second processor adds only the
// choice of where a woken goroutine runs, and waking an idle vCPU costs
// what the hypervisor makes it cost. With two, a 32-line batch's per-rank
// goroutines ran 10.4 or 17.5 µs within one run, and rpc_mixed's read
// moved from 28 to 46 µs within an hour on one binary while the
// one-processor figure moved from 27 to 30.
const procs = 1

// outDir is where the traced run writes its spans, from the repository
// root.
const outDir = "bench/out"

type options struct {
	seed  uint64
	trace bool
}

func runWorkload(w *workload, opt options) (*result, error) {
	runtime.GOMAXPROCS(procs)
	var f *fixture
	var setups, rawSetups []float64
	for i := 0; i < setupRuns; i++ {
		if f != nil {
			f.close()
		}
		runtime.GC()
		before := refNs()
		t := time.Now()
		var err error
		if f, err = setup(w, opt.seed); err != nil {
			return nil, err
		}
		d := time.Since(t).Seconds()
		rawSetups = append(rawSetups, d)
		setups = append(setups, d*clockScale(before, refNs()))
	}
	defer f.close()

	m, err := f.measure(w.slices)
	if err != nil {
		return nil, fmt.Errorf("%s: flush: %w", w.name, err)
	}
	if w.degraded && f.arr.Stats().AttacksDeclared != 0 {
		return nil, fmt.Errorf("%s: %d attacks declared: the fault was supposed to stay correctable", w.name, f.arr.Stats().AttacksDeclared)
	}

	res := &result{
		Workload:   w.name,
		Why:        w.why,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Slices:     len(m.recs),
		OpsPerRun:  len(m.recs) * w.shape.ops(),
		MeasuredS:  m.wall.Seconds(),
		StreamHash: fmt.Sprintf("%016x", f.st.sum),
		EndToEnd:   endToEnd(w, m, median(setups)),
		Harness:    runQuality(w, m, median(rawSetups)),
	}
	if opt.trace {
		if res.PerLayer, res.Trace, err = perLayer(f, m, res.EndToEnd, opt); err != nil {
			return nil, err
		}
		for name, v := range res.Harness {
			res.PerLayer[name] = v
		}
	}
	res.Attempted, res.Failed, res.Corrupt = f.attempted, f.failed, f.corrupt
	return res, nil
}

// isolated runs one workload in a process of its own, the way the
// driver does. A workload measured after others in one process is not
// the same workload: in sizing, rpc_mixed read 28.0 µs in a fresh
// process, 30.1 µs after the three engine workloads had run in its
// process and 36.4 µs after itself, with whatever heap, timers and
// goroutines the earlier fixtures left behind.
func isolated(w *workload, opt options) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(opt.seed, 10), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	var rep report
	if err := json.NewDecoder(bytes.NewReader(out)).Decode(&rep); err != nil || len(rep.Workloads) != 1 {
		return nil, fmt.Errorf("%s: unreadable report from the child process: %v", w.name, err)
	}
	return rep.Workloads[0], nil
}

// endToEnd reduces a measured phase to the four figures a user of the
// system pays for.
func endToEnd(w *workload, m *measured, setupS float64) metrics {
	ms := metrics{}
	ms.set("lines_per_s", float64(w.shape.lines())/quietDecile(totals(m.recs))*1e9)
	ms.set("read_ns", quietDecile(perOp(m.recs, kindRead)))
	ms.set("write_ns", quietDecile(perOp(m.recs, kindWrite)))
	ms.set("setup_s", setupS)
	return ms
}

// runQuality is what a reader checks before believing a run's
// end-to-end figures, so every run carries it, traced or not: how
// disturbed the slices were, how the host's clock compared with the
// reference, and the same figures as the host's clock ran them.
func runQuality(w *workload, m *measured, rawSetupS float64) metrics {
	ms := metrics{}
	ms.set("harness.noise_ratio", noiseRatio(totals(m.recs)))
	ms.set("harness.clock_ratio", median(column(m.recs, func(r *sliceRecord) float64 { return 1 / r.scale })))
	ms.set("harness.lines_per_s_raw", float64(w.shape.lines())/quietDecile(column(m.recs, func(r *sliceRecord) float64 { return r.total }))*1e9)
	ms.set("harness.read_raw_ns", quietDecile(rawPerOp(m.recs, kindRead)))
	ms.set("harness.write_raw_ns", quietDecile(rawPerOp(m.recs, kindWrite)))
	ms.set("harness.setup_raw_s", rawSetupS)
	ms.set("harness.read_mean_ns", mean(rawPerOp(m.recs, kindRead)))
	ms.set("harness.write_mean_ns", mean(rawPerOp(m.recs, kindWrite)))
	ms.set("harness.slices", float64(len(m.recs)))
	return ms
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload (default: all four)")
		seed      = flag.Uint64("seed", 1, "seed of the generated operation streams")
		seconds   = flag.Float64("seconds", runSeconds, "the driver passes run_seconds; operation counts are fixed, so only the default is accepted")
		trace     = flag.Int("trace", 0, "1 adds the per-layer metrics and the traced run")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced benchmark twice and compare against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds != runSeconds || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	run, runOne := workloads, isolated
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run, runOne = []*workload{w}, runWorkload
	}
	opt := options{seed: *seed, trace: *trace == 1}
	if *selfcheck {
		os.Exit(selfCheck(run, opt))
	}

	rep := report{Provenance: provenance(opt, run)}
	for _, w := range run {
		res, err := runOne(w, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		rep.Workloads = append(rep.Workloads, res)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if *name != "" {
		fmt.Println(contractLine(rep.Workloads[0], opt.trace))
	}
	for _, res := range rep.Workloads {
		if res.Corrupt > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: %d lines read back different from the shadow model: silent corruption\n", res.Workload, res.Corrupt)
			os.Exit(1)
		}
	}
}
