// DoS-detection demo (paper §IV-B): an adversary cannot break Synergy's
// correctness by planting correctable errors, but can try to burn MAC
// recomputation latency. The memory controller's corrected-error log
// plus statistical analysis separates that from a genuine hardware
// fault.
//
//	go run ./examples/dos-detection
package main

import (
	"fmt"
	"log"

	"synergy/internal/core"
)

func main() {
	fmt.Println("-- scenario 1: a real chip goes bad --")
	natural()
	fmt.Println("\n-- scenario 2: an adversary plants correctable errors --")
	adversarial()
}

func natural() {
	arr, err := core.NewArray(core.Config{DataLines: 128, FaultThreshold: 1 << 30})
	if err != nil {
		log.Fatal(err)
	}
	mem := arr.Rank(0)
	line := make([]byte, core.LineSize)
	for i := uint64(0); i < 64; i++ {
		arr.Write(i, line)
	}
	// Chip 3 fails for good.
	mem.Module().InjectPermanent(3, 0, mem.Module().Lines()-1, [8]byte{0x18})
	buf := make([]byte, core.LineSize)
	for i := uint64(0); i < 64; i++ {
		if i%8 == 3 {
			continue
		}
		if _, err := arr.Read(i, buf); err != nil {
			log.Fatal(err)
		}
	}
	report(mem)
}

func adversarial() {
	arr, err := core.NewArray(core.Config{DataLines: 128})
	if err != nil {
		log.Fatal(err)
	}
	mem := arr.Rank(0)
	line := make([]byte, core.LineSize)
	for i := uint64(0); i < 32; i++ {
		arr.Write(i, line)
	}
	// The adversary flips bits wherever the bus allows — across chips —
	// each flip individually correctable, each costing reconstruction
	// work.
	buf := make([]byte, core.LineSize)
	for k := 0; k < 24; k++ {
		target := uint64(k % 32)
		chip := k % 9
		mem.Module().InjectTransient(mem.Layout().DataAddr(target), chip, [8]byte{0x80})
		if _, err := arr.Read(target, buf); err != nil {
			log.Fatal(err)
		}
	}
	report(mem)
}

func report(mem *core.Memory) {
	s := mem.Stats()
	a := mem.ErrorLog().Analyze(s.Reads + s.Writes)
	fmt.Printf("corrections logged: %d  (%.0f per M accesses)\n",
		mem.ErrorLog().Total(), a.RatePerMAccess)
	fmt.Printf("per-chip counts:    %v\n", mem.ErrorLog().ByChip())
	fmt.Printf("dominant chip:      %d (%.0f%% of corrections)\n",
		a.DominantChip, a.DominantShare*100)
	fmt.Printf("assessment:         %v\n", a.Assessment)
}
