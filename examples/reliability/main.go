// Reliability demo: a miniature of Fig. 11 — Monte Carlo lifetime
// simulation comparing SECDED, Chipkill and Synergy under the Table I
// fault model, plus a functional end-to-end demonstration that the
// reliability the Monte Carlo credits to Synergy actually holds on the
// byte-accurate engine.
//
//	go run ./examples/reliability
package main

import (
	"bytes"
	"fmt"
	"log"

	"synergy/internal/core"
	"synergy/internal/reliability"
	"synergy/internal/stats"
)

func main() {
	fmt.Println("-- Monte Carlo (FAULTSIM-style), 7-year lifetime, Table I rates --")
	cfg := reliability.DefaultConfig()
	cfg.Trials = 100_000
	// The engine shards trials across GOMAXPROCS workers; per-trial
	// seeding keeps the table identical for any worker count, and all
	// policies see the same fault histories.
	results, err := reliability.SimulateAll(cfg)
	if err != nil {
		log.Fatal(err)
	}
	tbl := stats.NewTable("policy", "P(fail)", "improvement vs SECDED")
	var secded float64
	for _, res := range results {
		if res.Policy == reliability.SECDED {
			secded = res.Probability
		}
		imp := "-"
		if secded > 0 && res.Probability > 0 && res.Policy != reliability.NoECC {
			imp = fmt.Sprintf("%.0fx", secded/res.Probability)
		}
		tbl.AddRow(res.Policy.String(), fmt.Sprintf("%.3e", res.Probability), imp)
	}
	fmt.Print(tbl)

	fmt.Println("\n-- The same guarantee, end to end on the functional engine --")
	// Kill one entire chip out of 9 and verify every line survives: the
	// property the Monte Carlo assumes Synergy provides.
	arr, err := core.NewArray(core.Config{DataLines: 256})
	if err != nil {
		log.Fatal(err)
	}
	mem := arr.Rank(0)
	want := make([][]byte, 256)
	for i := range want {
		want[i] = bytes.Repeat([]byte{byte(i)}, core.LineSize)
		if err := arr.Write(uint64(i), want[i]); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := mem.Module().InjectPermanent(6, 0, mem.Module().Lines()-1, [8]byte{0xA5, 0x5A}); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, core.LineSize)
	corrected := 0
	for i := range want {
		info, err := arr.Read(uint64(i), buf)
		if err != nil {
			log.Fatalf("line %d unrecoverable: %v", i, err)
		}
		if !bytes.Equal(buf, want[i]) {
			log.Fatalf("line %d silently corrupted", i)
		}
		if info.Corrected || info.Preemptive {
			corrected++
		}
	}
	fmt.Printf("whole-chip failure (chip 6 of 9): all 256 lines recovered, %d needed the reconstruction engine\n", corrected)
	fmt.Printf("analytical SDC bound (§IV-A): %.1e FIT — thirteen orders below Chipkill's\n",
		reliability.SDCRate(100, 16, 64))
}
