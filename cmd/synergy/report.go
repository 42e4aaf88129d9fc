package main

import (
	"context"
	"fmt"
	"io"

	"synergy/internal/experiments"
)

// paperTargets records what the paper reports for each figure's
// headline metrics (experiment summary keys), in the order the report
// prints them.
var paperTargets = map[string][]struct {
	key  string
	want float64
}{
	"fig6":  {{"NonSecure/SGX_O", 2.12}, {"SGX/SGX_O", 0.70}},
	"fig8":  {{"Synergy/SGX_O", 1.20}, {"SGX/SGX_O", 0.70}},
	"fig9":  {{"Synergy/overall", 0.82}},
	"fig10": {{"Synergy/edp", 0.69}},
	"fig12": {{"Synergy@2ch", 1.20}, {"Synergy@8ch", 1.06}},
	"fig13": {{"monolithic", 1.20}, {"split", 1.23}},
	"fig14": {{"dedicated+LLC", 1.20}, {"dedicated only", 1.13}},
	"fig16": {{"IVEC/perf", 0.74}, {"IVEC/edp", 1.90}, {"Synergy/perf", 1.20}},
	"fig17": {{"LOT-ECC/perf", 0.825}, {"Synergy/perf", 1.20}},
}

// runReport is `synergy report`: it regenerates the paper's entire
// evaluation and emits a self-contained markdown report — every
// figure's table, the headline summaries, and the paper's reported
// numbers alongside for comparison — byte-identical across runs with
// the same flags. EXPERIMENTS.md comes from sim and faultsim runs.
//
//	synergy report > report.md
//	synergy report -instr 2000000 -trials 2000000 > report.md
func runReport(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("report", stderr)
	instr := fs.Uint64("instr", 1_000_000, "base instructions per core")
	trials := fs.Int("trials", 500_000, "reliability Monte Carlo trials")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fmt.Fprintln(stdout, "# SYNERGY reproduction report")
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "Performance figures at %d base instructions/core over the\n", *instr)
	fmt.Fprintf(stdout, "29-workload roster; reliability at %d Monte Carlo lifetimes.\n\n", *trials)

	r := experiments.ParallelRunner(experiments.Options{BaseInstr: *instr, Context: ctx})
	emit := func(fig experiments.Figure) { emitMarkdown(stdout, fig) }
	if err := eachFigure(experiments.PerfFigures, r, emit); err != nil {
		return err
	}
	fig11, err := experiments.Figure11(*trials, 1)
	if err != nil {
		return err
	}
	emit(fig11)
	return nil
}

func emitMarkdown(w io.Writer, fig experiments.Figure) {
	fmt.Fprintf(w, "## %s — %s\n\n", fig.ID, fig.Title)
	fmt.Fprintln(w, fig.Table.Markdown())
	targets := paperTargets[fig.ID]
	if len(targets) == 0 {
		fmt.Fprintln(w)
		return
	}
	fmt.Fprintln(w, "Headline vs paper:")
	fmt.Fprintln(w)
	for _, t := range targets {
		got, ok := fig.Summary[t.key]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "- `%s`: measured **%.3f**, paper ≈ %.2f\n", t.key, got, t.want)
	}
	fmt.Fprintln(w)
}
