package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"synergy/internal/experiments"
	"synergy/internal/reliability"
)

// faultsimOptions is the parsed faultsim command line.
type faultsimOptions struct {
	trials   int
	seed     int64
	years    float64
	scrub    float64
	ranks    int
	workers  int
	targetCI float64
	ivec     bool
	jsonOut  bool
	progress bool
	shared
}

func parseFaultsim(args []string, stderr io.Writer) (faultsimOptions, error) {
	var o faultsimOptions
	fs := newFlagSet("faultsim", stderr)
	fs.IntVar(&o.trials, "trials", 200_000, "Monte Carlo trials (device lifetimes)")
	fs.Int64Var(&o.seed, "seed", 1, "RNG seed (per-trial streams derive from it)")
	fs.Float64Var(&o.years, "years", 7, "system lifetime in years")
	fs.Float64Var(&o.scrub, "scrub", 24, "scrub interval in hours (transient fault lifetime)")
	fs.IntVar(&o.ranks, "ranks", 4, "ranks in the system (9 chips each)")
	fs.IntVar(&o.workers, "workers", 0, "Monte Carlo worker goroutines (0 = GOMAXPROCS); results are identical for any value")
	fs.Float64Var(&o.targetCI, "target-ci", 0, "stop early once the 95% Wilson interval on P(fail) is at most this wide (0 = run all trials)")
	fs.BoolVar(&o.ivec, "ivec", false, "also evaluate the §VII-A IVEC point (1 chip of 16, x4 DIMMs)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit machine-readable JSON instead of tables")
	fs.BoolVar(&o.progress, "progress", false, "report Monte Carlo progress on stderr")
	o.register(fs, true, true)
	if err := fs.Parse(args); err != nil {
		return faultsimOptions{}, err
	}
	return o, nil
}

// configFor applies every command-line knob onto a base config, so the
// main table and the -ivec comparison point (which differ only in
// their base) always agree on lifetime, scrub, ranks, workers, seed
// and stopping rule.
func configFor(base reliability.Config, o faultsimOptions) reliability.Config {
	base.Trials = o.trials
	base.Seed = o.seed
	base.LifetimeHours = o.years * 365.25 * 24
	base.ScrubHours = o.scrub
	base.Ranks = o.ranks
	base.Workers = o.workers
	base.TargetCIWidth = o.targetCI
	return base
}

// jsonConfig echoes the effective configuration in JSON output.
type jsonConfig struct {
	Trials        int     `json:"trials"`
	Seed          int64   `json:"seed"`
	Years         float64 `json:"years"`
	ScrubHours    float64 `json:"scrub_hours"`
	Ranks         int     `json:"ranks"`
	Workers       int     `json:"workers"`
	TargetCIWidth float64 `json:"target_ci_width,omitempty"`
}

// jsonReport is the -json output: the policy sweep, the optional IVEC
// point, and engine throughput (the reliability bench trajectory feeds
// on elapsed_sec / trials_per_sec).
type jsonReport struct {
	Config       jsonConfig           `json:"config"`
	Results      []reliability.Result `json:"results"`
	IVEC         *reliability.Result  `json:"ivec,omitempty"`
	SDCFIT       float64              `json:"sdc_fit"`
	ElapsedSec   float64              `json:"elapsed_sec"`
	TrialsPerSec float64              `json:"trials_per_sec"`
}

// runFaultsim is `synergy faultsim`: it regenerates the paper's
// reliability figure (Fig. 11): the probability of system failure over
// a 7-year lifetime under SECDED, Chipkill and Synergy protection, via
// FAULTSIM-style Monte Carlo with the Table I fault model. The Monte
// Carlo runs on a parallel engine with per-trial deterministic seeding:
// the numbers are bit-identical for any -workers setting.
//
//	synergy faultsim                    # default 200k trials
//	synergy faultsim -trials 2000000    # tighter confidence intervals
//	synergy faultsim -years 5 -scrub 12
//	synergy faultsim -workers 8 -target-ci 1e-3   # stop when CI tight
//	synergy faultsim -json              # machine-readable results
//	synergy faultsim -metrics :9091     # live trial throughput on /metrics
//	synergy faultsim -cpuprofile cpu.out
func runFaultsim(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	o, err := parseFaultsim(args, stderr)
	if err != nil {
		return err
	}
	reg, stop, err := o.start("faultsim", stderr)
	if err != nil {
		return err
	}
	defer stop()

	cfg := configFor(reliability.DefaultConfig(), o)
	ivecCfg := configFor(reliability.IVECConfig(), o)
	cfg.Telemetry = reg
	ivecCfg.Telemetry = reg
	if o.progress {
		total := cfg.Trials
		cfg.Progress = func(done, failures int) {
			if done%(1<<18) == 0 || done == total {
				fmt.Fprintf(stderr, "\r%d/%d trials, %d failures", done, total, failures)
				if done == total {
					fmt.Fprintln(stderr)
				}
			}
		}
	}

	start := time.Now()
	if o.jsonOut {
		results, err := reliability.SimulateAllContext(ctx, cfg)
		if err != nil {
			return err
		}
		var ivecRes *reliability.Result
		if o.ivec {
			res, err := reliability.SimulateContext(ctx, reliability.Synergy, ivecCfg)
			if err != nil {
				return err
			}
			ivecRes = &res
		}
		elapsed := time.Since(start)
		trialsRun := 0
		for _, r := range results {
			trialsRun += r.Trials
		}
		if ivecRes != nil {
			trialsRun += ivecRes.Trials
		}
		rep := jsonReport{
			Config: jsonConfig{
				Trials: o.trials, Seed: o.seed, Years: o.years,
				ScrubHours: o.scrub, Ranks: o.ranks, Workers: o.workers,
				TargetCIWidth: o.targetCI,
			},
			Results:      results,
			IVEC:         ivecRes,
			SDCFIT:       reliability.SDCRate(100, 16, 64),
			ElapsedSec:   elapsed.Seconds(),
			TrialsPerSec: float64(trialsRun) / elapsed.Seconds(),
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}

	fig, err := experiments.Figure11CfgContext(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, fig)

	if o.ivec {
		res, err := reliability.SimulateContext(ctx, reliability.Synergy, ivecCfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nIVEC (§VII-A, 1 chip of 16 on x4 DIMMs): P(fail) = %.3e (%d/%d)\n",
			res.Probability, res.Failures, res.Trials)
	}

	// The §IV-A analytical SDC bound for Synergy's reconstruction
	// engine: ≤16 MAC recomputations against a 64-bit MAC.
	fmt.Fprintf(stdout, "\nAnalytical Synergy SDC rate (§IV-A): %.2e FIT "+
		"(100 FIT of corrections x 16 attempts x 2^-64)\n",
		reliability.SDCRate(100, 16, 64))
	return nil
}
