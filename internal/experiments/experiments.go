// Package experiments regenerates every table and figure of the paper's
// evaluation (§V–§VII): it wires workloads, secure-memory designs, the
// DRAM model and the energy model together, runs the sweeps, and formats
// the same rows/series the paper reports. Both `synergy sim` and the
// repository's benchmark suite drive experiments through this package.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"synergy/internal/cpu"
	"synergy/internal/dram"
	"synergy/internal/energy"
	"synergy/internal/memctrl"
	"synergy/internal/reliability"
	"synergy/internal/secmem"
	"synergy/internal/stats"
	"synergy/internal/trace"
)

// Spec names one system configuration under test.
type Spec struct {
	Label    string
	Design   secmem.Design
	Channels int  // 0 = Table III default (2)
	Lockstep bool // Chipkill dual-channel operation
	// CounterShift overrides the design default when non-zero (3 =
	// monolithic, 6 = split counters).
	CounterShift uint
	// CountersInLLC: -1 force off, +1 force on, 0 design default.
	CountersInLLC int
	// LOTWC enables LOT-ECC write coalescing.
	LOTWC bool
	// DetailedDRAM swaps in the memctrl backend (tFAW, turnaround,
	// refresh) instead of the streamlined dram model.
	DetailedDRAM bool
}

// Options controls a sweep.
type Options struct {
	// BaseInstr is the per-core instruction budget before the
	// per-workload InstrScale (default 1M; the checked-in experiment
	// outputs use 1M, which runs the full roster in seconds).
	BaseInstr uint64
	// Workloads defaults to the paper's 29-workload roster.
	Workloads []trace.Workload
	// Parallelism is the number of worker goroutines used to pre-run
	// (workload, spec) pairs. 0 or 1 runs sequentially; each pair is an
	// independent simulation, so results are identical either way.
	Parallelism int
	// Progress, when non-nil, is called after each (workload, spec)
	// pair of a figure's sweep completes, with the number done and the
	// sweep's total. Calls are serialized; the callback must not block
	// for long or it stalls the worker pool.
	Progress func(completed, total int)
	// Context, when non-nil, cancels a sweep: once it is done, pending
	// (workload, spec) pairs are skipped and the figure returns the
	// context's error. Pairs already simulating run to completion (a
	// single pair takes well under a second at the default budget).
	Context context.Context
}

func (o Options) withDefaults() Options {
	if o.BaseInstr == 0 {
		o.BaseInstr = 1_000_000
	}
	if o.Workloads == nil {
		o.Workloads = trace.Workloads()
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	return o
}

// Figure is one regenerated experiment: a text table plus the headline
// numbers the paper quotes.
type Figure struct {
	ID      string
	Title   string
	Table   *stats.Table
	Summary map[string]float64
}

func (f Figure) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", f.ID, f.Title, f.Table)
	return s
}

// Runner executes specs, memoizing per (workload, spec label) so the
// figures that share configurations (6, 8, 9, 10) reuse runs.
type Runner struct {
	opt   Options
	mu    sync.Mutex
	cache map[string]cpu.Result
}

// PerfFigure is one of the paper's performance figures: its ID, which
// is also the ID of the Figure it regenerates, and the Runner method
// that regenerates it.
type PerfFigure struct {
	ID  string
	Run func(*Runner) (Figure, error)
}

// PerfFigures lists the paper's performance figures in paper order.
// Fig. 11, the reliability figure, needs no Runner (Figure11).
var PerfFigures = []PerfFigure{
	{"fig6", (*Runner).Figure6},
	{"fig8", (*Runner).Figure8},
	{"fig9", (*Runner).Figure9},
	{"fig10", (*Runner).Figure10},
	{"fig12", (*Runner).Figure12},
	{"fig13", (*Runner).Figure13},
	{"fig14", (*Runner).Figure14},
	{"fig16", (*Runner).Figure16},
	{"fig17", (*Runner).Figure17},
}

// NewRunner builds a Runner.
func NewRunner(opt Options) *Runner {
	return &Runner{opt: opt.withDefaults(), cache: map[string]cpu.Result{}}
}

// ParallelRunner builds a Runner that pre-runs sweeps on
// opt.Parallelism workers, or on one per CPU when that is not positive.
func ParallelRunner(opt Options) *Runner {
	if opt.Parallelism <= 0 {
		opt.Parallelism = runtime.NumCPU()
	}
	return NewRunner(opt)
}

// warm pre-executes every (workload, spec) pair concurrently so the
// figure loops hit the memo. Each pair is an independent simulation
// with its own caches and DRAM state, so concurrency cannot change any
// result.
func (r *Runner) warm(specs ...Spec) {
	if r.opt.Parallelism <= 1 && r.opt.Progress == nil {
		return
	}
	type job struct {
		w trace.Workload
		s Spec
	}
	var jobs []job
	r.mu.Lock()
	for _, w := range r.opt.Workloads {
		for _, s := range specs {
			if _, ok := r.cache[w.Name+"|"+s.Label]; !ok {
				jobs = append(jobs, job{w, s})
			}
		}
	}
	r.mu.Unlock()
	workers := r.opt.Parallelism
	if workers < 1 {
		workers = 1
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var pmu sync.Mutex
	completed := 0
	for _, j := range jobs {
		if r.opt.Context.Err() != nil {
			break // cancelled: the figure loop reports the error
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(j job) {
			defer wg.Done()
			defer func() { <-sem }()
			// Errors surface when the figure re-runs the pair.
			r.Run(j.w, j.s) //nolint:errcheck
			if r.opt.Progress != nil {
				pmu.Lock()
				completed++
				r.opt.Progress(completed, len(jobs))
				pmu.Unlock()
			}
		}(j)
	}
	wg.Wait()
}

// baseline specs shared by several figures.
var (
	specNonSecure = Spec{Label: "NonSecure", Design: secmem.NonSecure}
	specSGX       = Spec{Label: "SGX", Design: secmem.SGX}
	specSGXO      = Spec{Label: "SGX_O", Design: secmem.SGXO}
	specSynergy   = Spec{Label: "Synergy", Design: secmem.Synergy}
)

// Run executes one (workload, spec) pair, memoized. Safe for
// concurrent use; duplicate concurrent computations of the same key are
// benign (the simulation is deterministic).
func (r *Runner) Run(w trace.Workload, s Spec) (cpu.Result, error) {
	if err := r.opt.Context.Err(); err != nil {
		return cpu.Result{}, fmt.Errorf("experiments: %s|%s: %w", w.Name, s.Label, err)
	}
	key := w.Name + "|" + s.Label
	r.mu.Lock()
	if res, ok := r.cache[key]; ok {
		r.mu.Unlock()
		return res, nil
	}
	r.mu.Unlock()
	scfg := secmem.DefaultConfig(s.Design)
	if s.CounterShift != 0 {
		scfg.CounterShift = s.CounterShift
	}
	switch s.CountersInLLC {
	case 1:
		scfg.CountersInLLC = true
	case -1:
		scfg.CountersInLLC = false
	}
	hier, err := secmem.New(scfg)
	if err != nil {
		return cpu.Result{}, err
	}
	if s.LOTWC {
		hier.SetLOTWriteCoalescing(true)
	}
	var mem cpu.Memory
	if s.DetailedDRAM {
		mcfg := memctrl.DefaultConfig()
		if s.Channels != 0 {
			mcfg.Channels = s.Channels
		}
		mcfg.Lockstep = s.Lockstep
		ctl, err := memctrl.New(mcfg)
		if err != nil {
			return cpu.Result{}, err
		}
		mem = ctl
	} else {
		dcfg := dram.DefaultConfig()
		if s.Channels != 0 {
			dcfg.Channels = s.Channels
		}
		dcfg.Lockstep = s.Lockstep
		sys, err := dram.New(dcfg)
		if err != nil {
			return cpu.Result{}, err
		}
		mem = sys
	}
	ccfg := cpu.DefaultConfig()
	ccfg.InstrPerCore = w.InstrBudget(r.opt.BaseInstr)
	res, err := cpu.Run(ccfg, w, hier, mem)
	if err != nil {
		return cpu.Result{}, err
	}
	res.Design = s.Label
	r.mu.Lock()
	r.cache[key] = res
	r.mu.Unlock()
	return res, nil
}

// ipcTable builds a per-workload normalized-IPC table for specs, with
// the given spec as the normalization baseline, appending the gmean.
func (r *Runner) ipcTable(specs []Spec, baseline Spec) (*stats.Table, map[string]float64, error) {
	r.warm(append([]Spec{baseline}, specs...)...)
	header := []string{"workload"}
	for _, s := range specs {
		header = append(header, s.Label)
	}
	tbl := stats.NewTable(header...)
	ratios := make(map[string][]float64)
	for _, w := range r.opt.Workloads {
		base, err := r.Run(w, baseline)
		if err != nil {
			return nil, nil, err
		}
		row := []interface{}{w.Name}
		for _, s := range specs {
			res, err := r.Run(w, s)
			if err != nil {
				return nil, nil, err
			}
			v := res.IPC / base.IPC
			row = append(row, v)
			ratios[s.Label] = append(ratios[s.Label], v)
		}
		tbl.AddRow(row...)
	}
	gm := make(map[string]float64)
	row := []interface{}{"GMEAN"}
	for _, s := range specs {
		gm[s.Label] = stats.Geomean(ratios[s.Label])
		row = append(row, gm[s.Label])
	}
	tbl.AddRow(row...)
	return tbl, gm, nil
}

// Figure6 compares SGX, SGX_O and Non-Secure IPC, all normalized to
// SGX_O (paper: Non-Secure ≈ +112%, SGX ≈ −30%).
func (r *Runner) Figure6() (Figure, error) {
	tbl, gm, err := r.ipcTable([]Spec{specSGX, specSGXO, specNonSecure}, specSGXO)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:    "fig6",
		Title: "Performance of SGX, SGX_O and Non-Secure, normalized to SGX_O",
		Table: tbl,
		Summary: map[string]float64{
			"NonSecure/SGX_O": gm["NonSecure"],
			"SGX/SGX_O":       gm["SGX"],
		},
	}, nil
}

// Figure8 compares SGX, SGX_O and Synergy IPC normalized to SGX_O
// (paper: Synergy +20% gmean, SGX −30%).
func (r *Runner) Figure8() (Figure, error) {
	tbl, gm, err := r.ipcTable([]Spec{specSGX, specSGXO, specSynergy}, specSGXO)
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID:    "fig8",
		Title: "IPC of SGX, SGX_O and Synergy normalized to SGX_O",
		Table: tbl,
		Summary: map[string]float64{
			"Synergy/SGX_O": gm["Synergy"],
			"SGX/SGX_O":     gm["SGX"],
		},
	}, nil
}

// Figure9 breaks memory traffic down by access category for reads,
// writes and overall, normalized to SGX_O's totals (paper: Synergy
// reduces total accesses by ~18%).
func (r *Runner) Figure9() (Figure, error) {
	specs := []Spec{specSGX, specSGXO, specSynergy}
	type agg struct {
		reads  [4]float64
		writes [4]float64
	}
	sums := map[string]*agg{}
	for _, s := range specs {
		sums[s.Label] = &agg{}
	}
	for _, w := range r.opt.Workloads {
		for _, s := range specs {
			res, err := r.Run(w, s)
			if err != nil {
				return Figure{}, err
			}
			a := sums[s.Label]
			instr := float64(res.Instructions)
			for c := 0; c < 4; c++ {
				a.reads[c] += float64(res.Traffic.Reads[c]) / instr * 1000
				a.writes[c] += float64(res.Traffic.Writes[c]) / instr * 1000
			}
		}
	}
	base := sums["SGX_O"]
	var baseRd, baseWr float64
	for c := 0; c < 4; c++ {
		baseRd += base.reads[c]
		baseWr += base.writes[c]
	}
	baseAll := baseRd + baseWr

	tbl := stats.NewTable("side", "design", "data", "counter", "mac", "parity", "total")
	summary := map[string]float64{}
	for _, side := range []string{"reads", "writes", "overall"} {
		for _, s := range specs {
			a := sums[s.Label]
			var cats [4]float64
			var norm float64
			switch side {
			case "reads":
				cats, norm = a.reads, baseRd
			case "writes":
				cats, norm = a.writes, baseWr
			default:
				for c := 0; c < 4; c++ {
					cats[c] = a.reads[c] + a.writes[c]
				}
				norm = baseAll
			}
			total := 0.0
			for c := 0; c < 4; c++ {
				total += cats[c]
			}
			tbl.AddRow(side, s.Label,
				cats[0]/norm, cats[1]/norm, cats[2]/norm, cats[3]/norm, total/norm)
			summary[s.Label+"/"+side] = total / norm
		}
	}
	return Figure{
		ID:      "fig9",
		Title:   "Memory traffic by type of access, normalized to SGX_O",
		Table:   tbl,
		Summary: summary,
	}, nil
}

// energyOf evaluates the energy model on a run.
func energyOf(res cpu.Result, channels int) (energy.Report, error) {
	return energy.Default().Evaluate(res.Cycles, channels,
		res.Traffic.TotalReads(), res.Traffic.TotalWrites())
}

// Figure10 reports power, performance, energy and system-EDP for SGX,
// SGX_O and Synergy normalized to SGX_O (paper: Synergy EDP −31%).
func (r *Runner) Figure10() (Figure, error) {
	specs := []Spec{specSGX, specSGXO, specSynergy}
	ratios := map[string]map[string][]float64{}
	for _, s := range specs {
		ratios[s.Label] = map[string][]float64{}
	}
	for _, w := range r.opt.Workloads {
		base, err := r.Run(w, specSGXO)
		if err != nil {
			return Figure{}, err
		}
		baseE, err := energyOf(base, 2)
		if err != nil {
			return Figure{}, err
		}
		for _, s := range specs {
			res, err := r.Run(w, s)
			if err != nil {
				return Figure{}, err
			}
			e, err := energyOf(res, 2)
			if err != nil {
				return Figure{}, err
			}
			m := ratios[s.Label]
			m["power"] = append(m["power"], e.AvgPowerW/baseE.AvgPowerW)
			m["performance"] = append(m["performance"], res.IPC/base.IPC)
			m["energy"] = append(m["energy"], e.EnergyJ/baseE.EnergyJ)
			m["edp"] = append(m["edp"], e.EDP/baseE.EDP)
		}
	}
	tbl := stats.NewTable("design", "power", "performance", "energy", "edp")
	summary := map[string]float64{}
	for _, s := range specs {
		m := ratios[s.Label]
		p, perf := stats.Geomean(m["power"]), stats.Geomean(m["performance"])
		en, edp := stats.Geomean(m["energy"]), stats.Geomean(m["edp"])
		tbl.AddRow(s.Label, p, perf, en, edp)
		summary[s.Label+"/edp"] = edp
		summary[s.Label+"/energy"] = en
	}
	return Figure{
		ID:      "fig10",
		Title:   "Power, Performance, Energy and System-EDP normalized to SGX_O",
		Table:   tbl,
		Summary: summary,
	}, nil
}

// Figure11 is the reliability comparison (SECDED vs Chipkill vs
// Synergy probability of system failure over 7 years; paper: 37x and
// 185x reductions vs SECDED) at the paper's default configuration.
func Figure11(trials int, seed int64) (Figure, error) {
	cfg := reliability.DefaultConfig()
	if trials > 0 {
		cfg.Trials = trials
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	return Figure11CfgContext(context.Background(), cfg)
}

// Figure11CfgContext regenerates Fig. 11 under an explicit Monte Carlo
// config (lifetime, scrub, ranks, workers, early stop). It runs on the
// parallel reliability engine; per-trial deterministic seeding makes
// the table identical for any worker count, and early stopping
// (cfg.TargetCIWidth) is reflected in the trial counts of the results.
// The sweep stops at the next Monte Carlo block boundary once ctx is
// done.
func Figure11CfgContext(ctx context.Context, cfg reliability.Config) (Figure, error) {
	results, err := reliability.SimulateAllContext(ctx, cfg)
	if err != nil {
		return Figure{}, err
	}
	years := cfg.LifetimeHours / (365.25 * 24)
	tbl := stats.NewTable("policy", fmt.Sprintf("P(fail, %gy)", years),
		"95% CI low", "95% CI high", "trials", "vs SECDED")
	summary := map[string]float64{}
	var secded float64
	for _, res := range results {
		if res.Policy == reliability.SECDED {
			secded = res.Probability
		}
		improvement := 0.0
		if res.Probability > 0 && secded > 0 {
			improvement = secded / res.Probability
		}
		tbl.AddRow(res.Policy.String(),
			fmt.Sprintf("%.3e", res.Probability),
			fmt.Sprintf("%.3e", res.WilsonLo),
			fmt.Sprintf("%.3e", res.WilsonHi),
			res.Trials,
			fmt.Sprintf("%.1fx", improvement))
		summary[res.Policy.String()] = res.Probability
	}
	return Figure{
		ID:      "fig11",
		Title:   fmt.Sprintf("Probability of system failure over %g years (FAULTSIM-style Monte Carlo)", years),
		Table:   tbl,
		Summary: summary,
	}, nil
}

// Figure12 sweeps the channel count (2, 4, 8) and reports gmean IPC of
// SGX, SGX_O, Synergy normalized to SGX_O at the same channel count
// (paper: Synergy's gain shrinks from +20% to +6%).
func (r *Runner) Figure12() (Figure, error) {
	tbl := stats.NewTable("channels", "SGX", "SGX_O", "Synergy")
	summary := map[string]float64{}
	for _, ch := range []int{2, 4, 8} {
		specs := []Spec{
			{Label: fmt.Sprintf("SGX@%dch", ch), Design: secmem.SGX, Channels: ch},
			{Label: fmt.Sprintf("SGX_O@%dch", ch), Design: secmem.SGXO, Channels: ch},
			{Label: fmt.Sprintf("Synergy@%dch", ch), Design: secmem.Synergy, Channels: ch},
		}
		r.warm(specs...)
		var gms []float64
		for _, s := range specs {
			var ratios []float64
			for _, w := range r.opt.Workloads {
				base, err := r.Run(w, specs[1])
				if err != nil {
					return Figure{}, err
				}
				res, err := r.Run(w, s)
				if err != nil {
					return Figure{}, err
				}
				ratios = append(ratios, res.IPC/base.IPC)
			}
			gms = append(gms, stats.Geomean(ratios))
		}
		tbl.AddRow(fmt.Sprintf("%d", ch), gms[0], gms[1], gms[2])
		summary[fmt.Sprintf("Synergy@%dch", ch)] = gms[2]
		summary[fmt.Sprintf("SGX@%dch", ch)] = gms[0]
	}
	return Figure{
		ID:      "fig12",
		Title:   "Gmean IPC vs channel count, normalized to SGX_O at each count",
		Table:   tbl,
		Summary: summary,
	}, nil
}

// Figure13 compares Synergy's speedup with monolithic (shift 3) and
// split (shift 6) counters, each normalized to SGX_O using the same
// counter organization (paper: +20% vs +23%).
func (r *Runner) Figure13() (Figure, error) {
	tbl := stats.NewTable("counter organization", "Synergy speedup over SGX_O")
	summary := map[string]float64{}
	for _, org := range []struct {
		name  string
		shift uint
	}{{"monolithic", 3}, {"split", 6}} {
		base := Spec{Label: "SGX_O/" + org.name, Design: secmem.SGXO, CounterShift: org.shift}
		syn := Spec{Label: "Synergy/" + org.name, Design: secmem.Synergy, CounterShift: org.shift}
		r.warm(base, syn)
		var ratios []float64
		for _, w := range r.opt.Workloads {
			b, err := r.Run(w, base)
			if err != nil {
				return Figure{}, err
			}
			s, err := r.Run(w, syn)
			if err != nil {
				return Figure{}, err
			}
			ratios = append(ratios, s.IPC/b.IPC)
		}
		gm := stats.Geomean(ratios)
		tbl.AddRow(org.name, gm)
		summary[org.name] = gm
	}
	return Figure{
		ID:      "fig13",
		Title:   "Synergy speedup with monolithic vs split counters",
		Table:   tbl,
		Summary: summary,
	}, nil
}

// Figure14 compares Synergy's speedup when counters are cached in the
// LLC (vs SGX_O) and when only the dedicated cache is used (vs SGX)
// (paper: +20% vs +13%).
func (r *Runner) Figure14() (Figure, error) {
	tbl := stats.NewTable("counter caching", "Synergy speedup over matching baseline")
	summary := map[string]float64{}
	cases := []struct {
		name string
		base Spec
		syn  Spec
	}{
		{"dedicated+LLC", specSGXO, specSynergy},
		{"dedicated only",
			Spec{Label: "SGX", Design: secmem.SGX},
			Spec{Label: "Synergy/ded", Design: secmem.Synergy, CountersInLLC: -1}},
	}
	for _, c := range cases {
		r.warm(c.base, c.syn)
		var ratios []float64
		for _, w := range r.opt.Workloads {
			b, err := r.Run(w, c.base)
			if err != nil {
				return Figure{}, err
			}
			s, err := r.Run(w, c.syn)
			if err != nil {
				return Figure{}, err
			}
			ratios = append(ratios, s.IPC/b.IPC)
		}
		gm := stats.Geomean(ratios)
		tbl.AddRow(c.name, gm)
		summary[c.name] = gm
	}
	return Figure{
		ID:      "fig14",
		Title:   "Synergy speedup with LLC counter caching vs dedicated-only",
		Table:   tbl,
		Summary: summary,
	}, nil
}

// perfEDPTable compares specs against SGX_O on gmean performance and EDP.
func (r *Runner) perfEDPTable(id, title string, specs []Spec) (Figure, error) {
	r.warm(append([]Spec{specSGXO}, specs...)...)
	tbl := stats.NewTable("design", "performance", "edp")
	summary := map[string]float64{}
	for _, s := range specs {
		var perf, edp []float64
		for _, w := range r.opt.Workloads {
			base, err := r.Run(w, specSGXO)
			if err != nil {
				return Figure{}, err
			}
			baseE, err := energyOf(base, 2)
			if err != nil {
				return Figure{}, err
			}
			res, err := r.Run(w, s)
			if err != nil {
				return Figure{}, err
			}
			e, err := energyOf(res, 2)
			if err != nil {
				return Figure{}, err
			}
			perf = append(perf, res.IPC/base.IPC)
			edp = append(edp, e.EDP/baseE.EDP)
		}
		p, ed := stats.Geomean(perf), stats.Geomean(edp)
		tbl.AddRow(s.Label, p, ed)
		summary[s.Label+"/perf"] = p
		summary[s.Label+"/edp"] = ed
	}
	return Figure{ID: id, Title: title, Table: tbl, Summary: summary}, nil
}

// Figure16 compares IVEC against Synergy (paper: IVEC −26% performance,
// +90% EDP vs SGX_O; Synergy +20%, −31%).
func (r *Runner) Figure16() (Figure, error) {
	return r.perfEDPTable("fig16",
		"Performance and EDP of IVEC and Synergy, normalized to SGX_O",
		[]Spec{
			{Label: "IVEC", Design: secmem.IVEC},
			specSynergy,
		})
}

// Figure17 compares secure-memory LOT-ECC (with and without write
// coalescing) against Synergy (paper: LOT-ECC −15–20%, Synergy +20%).
func (r *Runner) Figure17() (Figure, error) {
	return r.perfEDPTable("fig17",
		"Performance and EDP of LOT-ECC and Synergy, normalized to SGX_O",
		[]Spec{
			{Label: "LOT-ECC", Design: secmem.LOTECC},
			{Label: "LOT-ECC+WC", Design: secmem.LOTECC, LOTWC: true},
			specSynergy,
		})
}
