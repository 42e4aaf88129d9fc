// Command synergy-sim regenerates the performance figures of the SYNERGY
// paper (HPCA 2018): Fig. 6, 8, 9, 10, 12, 13, 14, 16 and 17.
//
// Usage:
//
//	synergy-sim -experiment fig8            # one figure
//	synergy-sim -experiment all             # every performance figure
//	synergy-sim -experiment fig8 -instr 4e6 # larger instruction budget
//	synergy-sim -experiment fig8 -cpuprofile cpu.out
//
// Each figure prints the same rows/series the paper reports, normalized
// to the SGX_O baseline, with the gmean summary the paper quotes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"synergy/internal/experiments"
	"synergy/internal/profiles"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintf(os.Stderr, "synergy-sim: %v\n", err)
		}
		os.Exit(1)
	}
}

// run carries the whole program so profile-flushing defers execute
// before the process exits (os.Exit skips defers in main).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("synergy-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("experiment", "all",
		"performance figure to regenerate (e.g. fig8), or all")
	instr := fs.Uint64("instr", 1_000_000,
		"base instructions per core (workloads with large footprints scale this up)")
	format := fs.String("format", "table", "output format: table|csv")
	workers := fs.Int("workers", 0,
		"worker goroutines pre-running (workload, spec) pairs (0 = one per CPU)")
	progress := fs.Bool("progress", false, "report sweep progress on stderr")
	var prof profiles.Flags
	prof.Register(fs)
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
		return fmt.Errorf("unknown experiment %q (reliability lives in synergy-faultsim)", *exp)
	}

	stopProf, err := prof.Start("synergy-sim")
	if err != nil {
		return err
	}
	defer stopProf()

	opt := experiments.Options{BaseInstr: *instr, Parallelism: *workers}
	if *progress {
		opt.Progress = func(completed, total int) {
			fmt.Fprintf(stderr, "\rsynergy-sim: sweep %d/%d", completed, total)
			if completed == total {
				fmt.Fprintln(stderr)
			}
		}
	}
	runner := experiments.ParallelRunner(opt)

	for _, f := range figs {
		fig, err := f.Run(runner)
		if err != nil {
			return fmt.Errorf("%s: %w", f.ID, err)
		}
		if *format == "csv" {
			fmt.Fprintf(stdout, "# %s: %s\n%s\n", fig.ID, fig.Title, fig.Table.CSV())
		} else {
			fmt.Fprintln(stdout, fig)
			printSummary(stdout, fig)
			fmt.Fprintln(stdout)
		}
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
