// Fault-injection walkthrough of the paper's error scenarios (Fig. 7):
// errors in data, MAC, counter, tree and parity cachelines; the
// overlapping data+parity chip failure that needs ParityP; a whole-chip
// permanent failure with the §IV-A scoreboard; the fail-closed attack
// cases; and the degraded-mode lifecycle that follows them — poison
// fast-fail, a patrol scrub that logs-and-continues, and chip
// replacement via RepairChip (DESIGN.md §10).
//
//	go run ./examples/fault-injection
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"synergy/internal/core"
	"synergy/internal/dimm"
)

func main() {
	a, err := core.NewArray(core.Config{DataLines: 512, FaultThreshold: 3})
	if err != nil {
		log.Fatal(err)
	}
	mem := a.Rank(0)
	want := make(map[uint64][]byte)
	for i := uint64(0); i < 512; i++ {
		line := make([]byte, core.LineSize)
		for b := range line {
			line[b] = byte(i) ^ byte(b)
		}
		if err := a.Write(i, line); err != nil {
			log.Fatal(err)
		}
		want[i] = line
	}
	lay := mem.Layout()

	check := func(scenario string, line uint64) core.ReadInfo {
		buf := make([]byte, core.LineSize)
		info, err := a.Read(line, buf)
		if err != nil {
			log.Fatalf("%s: %v", scenario, err)
		}
		if !bytes.Equal(buf, want[line]) {
			log.Fatalf("%s: data mismatch", scenario)
		}
		fmt.Printf("%-42s corrected=%v chips=%v parityP=%v recomputes=%d\n",
			scenario, info.Corrected, info.FaultyChips, info.UsedParityP, info.MACRecomputations)
		return info
	}

	fmt.Println("-- Fig. 7 scenario D: data-cacheline errors --")
	mem.Module().InjectTransient(lay.DataAddr(10), 2, [8]byte{0xDE, 0xAD, 0xBE, 0xEF})
	check("data chip 2 corrupted", 10)
	mem.Module().InjectTransient(lay.DataAddr(11), dimm.ECCChip, [8]byte{0xFF})
	check("MAC chip corrupted", 11)

	fmt.Println("\n-- Fig. 7 scenarios B/C: counter and tree errors --")
	// Flush the on-chip metadata cache so the walk actually visits the
	// corrupted memory copies (a warm cache would mask them until
	// eviction — which is itself correct behavior).
	ctrAddr, slot := lay.CounterAddr(20)
	mem.Module().InjectTransient(ctrAddr, slot, [8]byte{0x01, 0x02})
	mem.FlushNodeCache()
	check("encryption-counter chip corrupted", 20)
	treeAddr := lay.TreeAddr(0, 0)
	mem.Module().InjectTransient(treeAddr, 5, [8]byte{0x42})
	mem.FlushNodeCache()
	check("integrity-tree chip corrupted", 0)

	fmt.Println("\n-- overlapping data+parity failure (needs ParityP) --")
	pAddr, pslot := lay.ParityAddr(33)
	mem.Module().InjectTransient(lay.DataAddr(33), pslot, [8]byte{0x5A})
	mem.Module().InjectTransient(pAddr, pslot, [8]byte{0xC3})
	info := check("data chip + its parity slot corrupted", 33)
	if !info.UsedParityP {
		log.Fatal("expected the parity-of-parities path")
	}

	fmt.Println("\n-- permanent whole-chip failure + scoreboard (§IV-A) --")
	mem.Module().InjectPermanent(4, 0, mem.Module().Lines()-1, [8]byte{0x3C})
	for pass := 0; pass < 4; pass++ {
		for _, line := range []uint64{1, 2, 3, 5, 6} {
			buf := make([]byte, core.LineSize)
			if _, err := a.Read(line, buf); err != nil {
				log.Fatalf("permanent fault pass %d line %d: %v", pass, line, err)
			}
			if !bytes.Equal(buf, want[line]) {
				log.Fatalf("permanent fault: wrong data on line %d", line)
			}
		}
	}
	fmt.Printf("scoreboard condemned chip: %d (injected: 4)\n", mem.KnownBadChip())
	buf := make([]byte, core.LineSize)
	ri, _ := a.Read(1, buf)
	fmt.Printf("steady-state read: preemptive=%v (1 MAC computation, like the baseline)\n", ri.Preemptive)

	fmt.Println("\n-- uncorrectable patterns fail closed (attack declared) --")
	a2, _ := core.NewArray(core.Config{DataLines: 64})
	mem2 := a2.Rank(0)
	line := make([]byte, core.LineSize)
	a2.Write(5, line)
	mem2.Module().InjectTransient(mem2.Layout().DataAddr(5), 1, [8]byte{1})
	mem2.Module().InjectTransient(mem2.Layout().DataAddr(5), 6, [8]byte{2})
	if _, err := a2.Read(5, buf); errors.Is(err, core.ErrAttack) {
		fmt.Println("two-chip corruption -> ErrAttack (no silent data corruption)")
	} else {
		log.Fatalf("expected ErrAttack, got %v", err)
	}

	fmt.Println("\n-- poison lifecycle: fast-fail, then heal by write --")
	// The attacked line is now poisoned: re-reads fail fast with
	// ErrPoisoned instead of re-running the 16-attempt reconstruction.
	if _, err := a2.Read(5, buf); !errors.Is(err, core.ErrPoisoned) {
		log.Fatalf("expected ErrPoisoned on re-read, got %v", err)
	}
	fmt.Printf("re-read -> ErrPoisoned (fast-fail), poisoned lines: %v\n", a2.Poisoned())
	// A write regenerates ciphertext, MAC and parity: the line is clean.
	if err := a2.Write(5, line); err != nil {
		log.Fatal(err)
	}
	if _, err := a2.Read(5, buf); err != nil {
		log.Fatalf("healed line still failing: %v", err)
	}
	fmt.Printf("write re-seals the line, poisoned lines: %v\n", a2.Poisoned())

	fmt.Println("\n-- patrol scrub: logs and continues past uncorrectables --")
	// One correctable fault on line 7, one uncorrectable on line 9.
	mem2.Module().InjectTransient(mem2.Layout().DataAddr(7), 3, [8]byte{0x70})
	mem2.Module().InjectTransient(mem2.Layout().DataAddr(9), 0, [8]byte{3})
	mem2.Module().InjectTransient(mem2.Layout().DataAddr(9), 5, [8]byte{4})
	rep, err := a2.Scrub(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scrub report: scanned=%d corrected=%d poisoned=%v\n",
		rep.Scanned, rep.Corrected, rep.Poisoned)
	a2.Write(9, line) // heal the poisoned line for the scrubber demo

	// The background scrubber runs the same pass on a tick, resuming
	// interrupted passes from per-rank cursors, here over two ranks.
	arr, err := core.NewArray(core.Config{DataLines: 256, Ranks: 2})
	if err != nil {
		log.Fatal(err)
	}
	for i := uint64(0); i < 256; i++ {
		arr.Write(i, line)
	}
	scr := arr.StartScrubber(context.Background(), 2*time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	scr.Stop()
	fmt.Printf("background scrubber: %d full passes in 20ms\n", scr.Passes())

	fmt.Println("\n-- chip replacement: RepairChip restores full speed --")
	// mem still has the whole-chip permanent fault on chip 4 and the
	// scoreboard condemnation. RepairChip models swapping the chip:
	// clear its faults, re-verify every line (MAC-checked — a blind
	// parity rebuild would corrupt lines with a second fault), rebuild
	// the parity region, reset the scoreboard.
	if err := a.RepairChip(0, 4); err != nil {
		log.Fatal(err)
	}
	ri, _ = a.Read(1, buf)
	fmt.Printf("after RepairChip: knownBad=%d preemptive=%v corrected=%v\n",
		mem.KnownBadChip(), ri.Preemptive, ri.Corrected)

	s := mem.Stats()
	fmt.Printf("\nengine stats: corrections=%d reconstruction attempts=%d parityP uses=%d preemptive=%d\n",
		s.CorrectionEvents, s.ReconstructionAttempts, s.ParityPUses, s.PreemptiveFixes)
	fmt.Printf("degraded-mode stats: poisoned=%d fast-fails=%d healed=%d chip repairs=%d\n",
		s.LinesPoisoned, s.PoisonFastFails, s.LinesHealed, s.ChipRepairs)
}
