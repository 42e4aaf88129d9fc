package main

import (
	"context"
	"fmt"
	"io"
	"sort"

	"synergy/internal/experiments"
)

// runSim is `synergy sim`: it regenerates the performance figures of
// the paper, Fig. 6, 8, 9, 10, 12, 13, 14, 16 and 17.
//
//	synergy sim -experiment fig8            # one figure
//	synergy sim -experiment all             # every performance figure
//	synergy sim -experiment fig8 -instr 4e6 # larger instruction budget
//	synergy sim -experiment fig8 -cpuprofile cpu.out
//
// Each figure prints the same rows/series the paper reports, normalized
// to the SGX_O baseline, with the gmean summary the paper quotes.
func runSim(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("sim", stderr)
	exp := fs.String("experiment", "all",
		"performance figure to regenerate (e.g. fig8), or all")
	instr := fs.Uint64("instr", 1_000_000,
		"base instructions per core (workloads with large footprints scale this up)")
	format := fs.String("format", "table", "output format: table|csv")
	workers := fs.Int("workers", 0,
		"worker goroutines pre-running (workload, spec) pairs (0 = one per CPU)")
	progress := fs.Bool("progress", false, "report sweep progress on stderr")
	var sh shared
	sh.register(fs, false, true)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var figs []experiments.PerfFigure
	for _, f := range experiments.PerfFigures {
		if *exp == "all" || *exp == f.ID {
			figs = append(figs, f)
		}
	}
	if len(figs) == 0 {
		return fmt.Errorf("unknown experiment %q (reliability lives in synergy faultsim)", *exp)
	}

	_, stop, err := sh.start("sim", stderr)
	if err != nil {
		return err
	}
	defer stop()

	opt := experiments.Options{BaseInstr: *instr, Parallelism: *workers, Context: ctx}
	if *progress {
		opt.Progress = func(completed, total int) {
			fmt.Fprintf(stderr, "\rsynergy sim: sweep %d/%d", completed, total)
			if completed == total {
				fmt.Fprintln(stderr)
			}
		}
	}
	return eachFigure(figs, experiments.ParallelRunner(opt), func(fig experiments.Figure) {
		if *format == "csv" {
			fmt.Fprintf(stdout, "# %s: %s\n%s\n", fig.ID, fig.Title, fig.Table.CSV())
			return
		}
		fmt.Fprintln(stdout, fig)
		printSummary(stdout, fig)
		fmt.Fprintln(stdout)
	})
}

// eachFigure regenerates figs in order on r and hands each to emit: the
// figure loop of both sim and report.
func eachFigure(figs []experiments.PerfFigure, r *experiments.Runner, emit func(experiments.Figure)) error {
	for _, f := range figs {
		fig, err := f.Run(r)
		if err != nil {
			return fmt.Errorf("%s: %w", f.ID, err)
		}
		emit(fig)
	}
	return nil
}

func printSummary(w io.Writer, fig experiments.Figure) {
	keys := make([]string, 0, len(fig.Summary))
	for k := range fig.Summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  summary %-24s %.3f\n", k, fig.Summary[k])
	}
}
