package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"synergy/internal/chaos"
)

// chaosOptions is the parsed chaos command line: the harness config
// plus the observability knobs that wrap around the run.
type chaosOptions struct {
	cfg     chaos.Config
	crash   bool
	jsonOut bool
	shared
}

func parseChaos(args []string, stderr io.Writer) (chaosOptions, error) {
	var o chaosOptions
	cfg := &o.cfg
	var lines uint64
	fs := newFlagSet("chaos", stderr)
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed for every actor's decision stream")
	fs.IntVar(&cfg.Workers, "workers", 4, "concurrent traffic goroutines")
	fs.Uint64Var(&lines, "lines", 256, "data lines in the array")
	fs.IntVar(&cfg.Ranks, "ranks", 2, "ranks in the array")
	fs.IntVar(&cfg.Rounds, "rounds", 0, "operations per worker (deterministic budget; 0 = use -duration, or 64)")
	fs.DurationVar(&cfg.Duration, "duration", 0, "wall-clock budget instead of -rounds")
	fs.BoolVar(&cfg.Permanent, "permanent", false, "cycle whole-chip permanent faults through RepairChip")
	fs.BoolVar(&cfg.Network, "network", false, "route all traffic through an in-process synergy server (HTTP/JSON RPC)")
	fs.BoolVar(&o.crash, "crash", false, "run the crash-safety scenario: checkpoint/crash/restore cycles under snapshot-store fault injection")
	fs.IntVar(&cfg.CrashCycles, "crash-cycles", 0, "checkpoint/crash/restore cycles with -crash (0 = 8)")
	fs.DurationVar(&cfg.ScrubInterval, "scrub-interval", 500*time.Microsecond, "background scrubber tick")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the machine-readable report")
	o.register(fs, true, true)
	if err := fs.Parse(args); err != nil {
		return chaosOptions{}, err
	}
	cfg.Lines = lines
	return o, nil
}

// runChaos is `synergy chaos`: it runs the deterministic
// fault-injection stress harness against a live Synergy Array: seeded
// concurrent read/write traffic from several workers, a background
// patrol scrubber, transient double-fault injection and (with
// -permanent) whole-chip fault / RepairChip cycles — checking that no
// read ever returns wrong data (zero SDC) and that the corrected-error
// log stays consistent with the engine's statistics.
//
// Every actor draws its decisions from its own seeded RNG and never
// branches on racy outcomes, so with a fixed -rounds budget the event
// stream (reported as a digest) is bit-identical across runs of the
// same seed — even under -race. With -duration the run is bounded by
// wall clock instead and only stream prefixes are reproducible.
//
//	synergy chaos                          # 64 rounds/worker, seed 1
//	synergy chaos -rounds 4096 -seed 7
//	synergy chaos -duration 30s -permanent # the CI smoke configuration
//	synergy chaos -duration 30s -metrics localhost:9091   # live /metrics
//	synergy chaos -rounds 4096 -cpuprofile cpu.out
//	go run -race ./cmd/synergy chaos -duration 30s
func runChaos(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	o, err := parseChaos(args, stderr)
	if err != nil {
		return err
	}
	cfg, jsonOut := o.cfg, o.jsonOut
	reg, stop, err := o.start("chaos", stderr)
	if err != nil {
		return err
	}
	defer stop()
	cfg.Telemetry = reg
	start := time.Now()
	var rep *chaos.Report
	if o.crash {
		rep, err = chaos.RunCrash(ctx, cfg)
	} else {
		rep, err = chaos.Run(ctx, cfg)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		transport := "direct"
		if cfg.Network {
			transport = "rpc"
		}
		fmt.Fprintf(stdout, "synergy-chaos: seed %d, %d workers, %s transport, %v\n",
			rep.Seed, rep.Workers, transport, elapsed.Round(time.Millisecond))
		fmt.Fprintf(stdout, "  events       %d (digest %s)\n", rep.EventCount, rep.EventDigest[:16])
		fmt.Fprintf(stdout, "  reads        %d verified, %d failed closed\n", rep.Reads, rep.FailClosed)
		fmt.Fprintf(stdout, "  writes       %d\n", rep.Writes)
		fmt.Fprintf(stdout, "  injections   %d transient, %d permanent-fault cycles\n", rep.Injected, rep.PermCycles)
		fmt.Fprintf(stdout, "  scrub passes %d\n", rep.ScrubPasses)
		if o.crash {
			fmt.Fprintf(stdout, "  durability   %d snapshots: %d restored verified, %d refused fail-closed\n",
				rep.Snapshots, rep.Restores, rep.RestoresRefused)
		}
		fmt.Fprintf(stdout, "  corrections  %d (%d reconstruction attempts, %d preemptive)\n",
			rep.Stats.CorrectionEvents, rep.Stats.ReconstructionAttempts, rep.Stats.PreemptiveFixes)
		fmt.Fprintf(stdout, "  poison       %d poisoned, %d healed, %d repairs\n",
			rep.Stats.LinesPoisoned, rep.Stats.LinesHealed, rep.Stats.ChipRepairs)
	}

	for _, s := range rep.SDCs {
		fmt.Fprintf(stderr, "SDC: %s\n", s)
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(stderr, "invariant violation: %s\n", v)
	}
	if rep.Failed() {
		return fmt.Errorf("%d SDCs, %d invariant violations", len(rep.SDCs), len(rep.Violations))
	}
	if !jsonOut {
		fmt.Fprintln(stdout, "  PASS: zero SDCs, all invariants held")
	}
	return nil
}
