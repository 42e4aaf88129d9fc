package experiments

import (
	"strings"
	"testing"

	"synergy/internal/secmem"
	"synergy/internal/trace"
)

// fastOptions trims the sweep for unit testing: a representative subset
// of workloads and a small instruction budget.
func fastOptions() Options {
	var subset []trace.Workload
	want := map[string]bool{"mcf": true, "lbm": true, "pr-web": true, "mix1": true}
	for _, w := range trace.Workloads() {
		if want[w.Name] {
			subset = append(subset, w)
		}
	}
	return Options{BaseInstr: 150_000, Workloads: subset}
}

func TestFigure6Shape(t *testing.T) {
	r := NewRunner(fastOptions())
	fig, err := r.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if fig.Summary["NonSecure/SGX_O"] <= 1.2 {
		t.Errorf("NonSecure gmean %.3f, want well above 1 (paper: 2.12)", fig.Summary["NonSecure/SGX_O"])
	}
	if fig.Summary["SGX/SGX_O"] >= 1.0 {
		t.Errorf("SGX gmean %.3f, want below 1 (paper: 0.70)", fig.Summary["SGX/SGX_O"])
	}
	if fig.Table.Rows() != len(fastOptions().Workloads)+1 {
		t.Errorf("table rows = %d", fig.Table.Rows())
	}
}

func TestFigure8Shape(t *testing.T) {
	r := NewRunner(fastOptions())
	fig, err := r.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if fig.Summary["Synergy/SGX_O"] <= 1.05 {
		t.Errorf("Synergy gmean %.3f, want above 1.05 (paper: 1.20)", fig.Summary["Synergy/SGX_O"])
	}
}

func TestFigure9Shape(t *testing.T) {
	r := NewRunner(fastOptions())
	fig, err := r.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	// SGX_O overall normalizes to 1 by construction.
	if v := fig.Summary["SGX_O/overall"]; v < 0.999 || v > 1.001 {
		t.Errorf("SGX_O overall = %.3f, want 1", v)
	}
	// Synergy must reduce overall traffic (paper: −18%).
	if v := fig.Summary["Synergy/overall"]; v >= 1.0 {
		t.Errorf("Synergy overall traffic %.3f, want < 1", v)
	}
	// And reduce read traffic specifically (no MAC reads).
	if v := fig.Summary["Synergy/reads"]; v >= fig.Summary["SGX_O/reads"] {
		t.Errorf("Synergy reads %.3f not below SGX_O", v)
	}
}

func TestFigure10Shape(t *testing.T) {
	r := NewRunner(fastOptions())
	fig, err := r.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	if v := fig.Summary["Synergy/edp"]; v >= 1.0 {
		t.Errorf("Synergy EDP %.3f, want < 1 (paper: 0.69)", v)
	}
	if v := fig.Summary["SGX/edp"]; v <= 1.0 {
		t.Errorf("SGX EDP %.3f, want > 1", v)
	}
}

func TestFigure11Shape(t *testing.T) {
	fig, err := Figure11(100_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	secded := fig.Summary["SECDED"]
	synergy := fig.Summary["Synergy"]
	chipkill := fig.Summary["Chipkill"]
	if !(secded > chipkill && chipkill >= synergy) {
		t.Errorf("ordering violated: SECDED %.3e, Chipkill %.3e, Synergy %.3e",
			secded, chipkill, synergy)
	}
}

func TestFigure12Shape(t *testing.T) {
	r := NewRunner(fastOptions())
	fig, err := r.Figure12()
	if err != nil {
		t.Fatal(err)
	}
	// Synergy's advantage shrinks as channels grow (paper: 20% -> 6%).
	two := fig.Summary["Synergy@2ch"]
	eight := fig.Summary["Synergy@8ch"]
	if !(two > 1.0) {
		t.Errorf("Synergy@2ch %.3f, want > 1", two)
	}
	if !(eight < two) {
		t.Errorf("Synergy@8ch %.3f not below @2ch %.3f", eight, two)
	}
	// SGX's penalty also shrinks.
	if !(fig.Summary["SGX@8ch"] > fig.Summary["SGX@2ch"]) {
		t.Errorf("SGX penalty did not shrink with channels: %.3f vs %.3f",
			fig.Summary["SGX@8ch"], fig.Summary["SGX@2ch"])
	}
}

func TestFigure13Shape(t *testing.T) {
	r := NewRunner(fastOptions())
	fig, err := r.Figure13()
	if err != nil {
		t.Fatal(err)
	}
	if fig.Summary["monolithic"] <= 1.0 || fig.Summary["split"] <= 1.0 {
		t.Errorf("Synergy speedups %.3f/%.3f, want both > 1", fig.Summary["monolithic"], fig.Summary["split"])
	}
}

func TestFigure14Shape(t *testing.T) {
	r := NewRunner(fastOptions())
	fig, err := r.Figure14()
	if err != nil {
		t.Fatal(err)
	}
	if fig.Summary["dedicated+LLC"] <= 1.0 || fig.Summary["dedicated only"] <= 1.0 {
		t.Errorf("speedups %.3f/%.3f, want both > 1",
			fig.Summary["dedicated+LLC"], fig.Summary["dedicated only"])
	}
}

func TestFigure16Shape(t *testing.T) {
	r := NewRunner(fastOptions())
	fig, err := r.Figure16()
	if err != nil {
		t.Fatal(err)
	}
	if v := fig.Summary["IVEC/perf"]; v >= 1.0 {
		t.Errorf("IVEC performance %.3f, want < 1 (paper: 0.74)", v)
	}
	if v := fig.Summary["IVEC/edp"]; v <= 1.0 {
		t.Errorf("IVEC EDP %.3f, want > 1 (paper: 1.90)", v)
	}
	if v := fig.Summary["Synergy/perf"]; v <= 1.0 {
		t.Errorf("Synergy performance %.3f, want > 1", v)
	}
}

func TestFigure17Shape(t *testing.T) {
	r := NewRunner(fastOptions())
	fig, err := r.Figure17()
	if err != nil {
		t.Fatal(err)
	}
	lot := fig.Summary["LOT-ECC/perf"]
	lotwc := fig.Summary["LOT-ECC+WC/perf"]
	if lot >= 1.0 {
		t.Errorf("LOT-ECC performance %.3f, want < 1 (paper: ~0.80-0.85)", lot)
	}
	if lotwc < lot {
		t.Errorf("write coalescing made LOT-ECC slower: %.3f vs %.3f", lotwc, lot)
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(fastOptions())
	w := fastOptions().Workloads[0]
	a, err := r.Run(w, specSGXO)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(w, specSGXO)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("memoized run differs")
	}
	if len(r.cache) != 1 {
		t.Fatalf("cache has %d entries, want 1", len(r.cache))
	}
}

func TestFigureString(t *testing.T) {
	r := NewRunner(fastOptions())
	fig, err := r.Figure13()
	if err != nil {
		t.Fatal(err)
	}
	s := fig.String()
	if !strings.Contains(s, "fig13") || !strings.Contains(s, "monolithic") {
		t.Fatalf("figure rendering:\n%s", s)
	}
}

// Determinism: identical options produce identical figures (all
// randomness is seeded), which is what makes EXPERIMENTS.md's recorded
// numbers reproducible.
func TestExperimentsDeterministic(t *testing.T) {
	run := func() string {
		r := NewRunner(fastOptions())
		fig, err := r.Figure8()
		if err != nil {
			t.Fatal(err)
		}
		return fig.Table.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("figure 8 not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// The detailed memctrl backend must preserve the headline ordering end
// to end through the experiment harness.
func TestDetailedBackendSpec(t *testing.T) {
	r := NewRunner(fastOptions())
	w := fastOptions().Workloads[0]
	base, err := r.Run(w, Spec{Label: "SGX_O/d", Design: secmem.SGXO, DetailedDRAM: true})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := r.Run(w, Spec{Label: "Synergy/d", Design: secmem.Synergy, DetailedDRAM: true})
	if err != nil {
		t.Fatal(err)
	}
	if syn.IPC <= base.IPC {
		t.Fatalf("detailed backend: Synergy %.3f not above SGX_O %.3f", syn.IPC, base.IPC)
	}
}

// A parallel runner must produce byte-identical figures to a sequential
// one (simulations are independent and deterministic).
func TestParallelRunnerMatchesSequential(t *testing.T) {
	seq := NewRunner(fastOptions())
	par := ParallelRunner(fastOptions())
	fs, err := seq.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := par.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if fs.Table.String() != fp.Table.String() {
		t.Fatalf("parallel differs:\n%s\nvs\n%s", fp.Table, fs.Table)
	}
}

// TestPerfFiguresIDs: every entry of the figure table regenerates the
// figure it names.
func TestPerfFiguresIDs(t *testing.T) {
	r := NewRunner(fastOptions())
	seen := map[string]bool{}
	for _, f := range PerfFigures {
		if seen[f.ID] {
			t.Errorf("%s listed twice", f.ID)
		}
		seen[f.ID] = true
		fig, err := f.Run(r)
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		if fig.ID != f.ID {
			t.Errorf("entry %s regenerated %s", f.ID, fig.ID)
		}
	}
}
