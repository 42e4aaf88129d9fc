// One benchmark per table/figure of the paper's evaluation. Each runs
// the experiment at a benchmark-friendly instruction budget and reports
// the headline numbers the paper quotes as custom metrics, so
//
//	go test -bench=Figure -benchmem
//
// regenerates the whole evaluation. `synergy sim` and
// `synergy faultsim` produce the full per-workload tables.
package synergy_test

import (
	"strings"
	"testing"

	"synergy/internal/core"
	"synergy/internal/experiments"
)

// benchOptions keeps figure benchmarks to a few seconds each while
// running the full 29-workload roster.
func benchOptions() experiments.Options {
	return experiments.Options{BaseInstr: 250_000}
}

// reportSummary attaches a figure's headline numbers to the benchmark.
// Metric units may not contain whitespace; summary keys that do are
// reported with dashes instead.
func reportSummary(b *testing.B, fig experiments.Figure, keys ...string) {
	b.Helper()
	for _, k := range keys {
		if v, ok := fig.Summary[k]; ok {
			b.ReportMetric(v, strings.ReplaceAll(k, " ", "-"))
		}
	}
}

// BenchmarkFigure6 — performance of SGX, SGX_O and Non-Secure
// normalized to SGX_O (paper: Non-Secure 2.12x, SGX 0.70x).
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		fig, err := r.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		reportSummary(b, fig, "NonSecure/SGX_O", "SGX/SGX_O")
	}
}

// BenchmarkFigure8 — IPC of SGX, SGX_O, Synergy normalized to SGX_O
// (paper: Synergy 1.20x gmean).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		fig, err := r.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		reportSummary(b, fig, "Synergy/SGX_O", "SGX/SGX_O")
	}
}

// BenchmarkFigure9 — memory traffic by category normalized to SGX_O
// (paper: Synergy reduces overall accesses by 18%).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		fig, err := r.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		reportSummary(b, fig, "Synergy/overall", "SGX/overall", "Synergy/reads", "Synergy/writes")
	}
}

// BenchmarkFigure10 — power/performance/energy/EDP normalized to SGX_O
// (paper: Synergy EDP 0.69x).
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		fig, err := r.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		reportSummary(b, fig, "Synergy/edp", "SGX/edp", "Synergy/energy")
	}
}

// BenchmarkFigure11 — probability of system failure over 7 years under
// SECDED / Chipkill / Synergy (paper: 37x and 185x vs SECDED).
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure11(150_000, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		secded, chipkill, synergy := fig.Summary["SECDED"], fig.Summary["Chipkill"], fig.Summary["Synergy"]
		if chipkill > 0 {
			b.ReportMetric(secded/chipkill, "SECDED/Chipkill")
		}
		if synergy > 0 {
			b.ReportMetric(secded/synergy, "SECDED/Synergy")
		}
	}
}

// BenchmarkFigure12 — sensitivity to 2/4/8 memory channels (paper:
// Synergy's gain shrinks from +20% to +6%).
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		fig, err := r.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		reportSummary(b, fig, "Synergy@2ch", "Synergy@4ch", "Synergy@8ch")
	}
}

// BenchmarkFigure13 — monolithic vs split counters (paper: +20% vs +23%).
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		fig, err := r.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		reportSummary(b, fig, "monolithic", "split")
	}
}

// BenchmarkFigure14 — LLC counter caching vs dedicated-only (paper:
// +20% vs +13%).
func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		fig, err := r.Figure14()
		if err != nil {
			b.Fatal(err)
		}
		reportSummary(b, fig, "dedicated+LLC", "dedicated only")
	}
}

// BenchmarkFigure16 — IVEC vs Synergy performance and EDP (paper: IVEC
// 0.74x perf / 1.90x EDP).
func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		fig, err := r.Figure16()
		if err != nil {
			b.Fatal(err)
		}
		reportSummary(b, fig, "IVEC/perf", "IVEC/edp", "Synergy/perf", "Synergy/edp")
	}
}

// BenchmarkFigure17 — LOT-ECC (±write coalescing) vs Synergy (paper:
// LOT-ECC 0.80–0.85x).
func BenchmarkFigure17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOptions())
		fig, err := r.Figure17()
		if err != nil {
			b.Fatal(err)
		}
		reportSummary(b, fig, "LOT-ECC/perf", "LOT-ECC+WC/perf", "Synergy/perf")
	}
}

// BenchmarkCorrectionLatency measures the functional engine's Fig. 5
// reconstruction path: reads under an active whole-chip fault, before
// the scoreboard engages (worst case) — the latency §IV-A's mitigation
// addresses.
func BenchmarkCorrectionLatency(b *testing.B) {
	arr, err := core.NewArray(core.Config{DataLines: 1024, FaultThreshold: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	mem := arr.Rank(0)
	buf := make([]byte, core.LineSize)
	for i := uint64(0); i < 1024; i++ {
		if err := arr.Write(i, buf); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := mem.Module().InjectPermanent(2, 0, mem.Module().Lines()-1, [8]byte{0x77}); err != nil {
		b.Fatal(err)
	}
	before := mem.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arr.Read(uint64(i)%1024, buf); err != nil {
			b.Fatal(err)
		}
	}
	after := mem.Stats()
	if reads := after.Reads - before.Reads; reads > 0 {
		b.ReportMetric(float64(after.MACComputations-before.MACComputations)/float64(reads), "MACs/read")
	}
}
