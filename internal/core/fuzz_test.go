package core

import (
	"bytes"
	"testing"

	"synergy/internal/dimm"
)

// FuzzReconstructData drives the read-path reconstruction machinery
// with arbitrary corruption of a sealed line: up to two chip slices
// (data or ECC) XORed with attacker-chosen masks. The contract under
// fuzz is the engine's core safety property — a read either restores
// the exact plaintext or fails closed (ErrAttack, then ErrPoisoned on
// the re-read). Wrong data is never returned, for any mask pair.
//
// Run with `go test -fuzz=FuzzReconstructData ./internal/core`.
func FuzzReconstructData(f *testing.F) {
	f.Add([]byte("seed line payload"), uint8(3), uint8(1), uint8(6), uint64(0x8000000000000000), uint64(1))
	f.Add([]byte{}, uint8(0), uint8(8), uint8(8), uint64(0xFF), uint64(0))     // ECC chip, second mask empty
	f.Add([]byte{0xA5}, uint8(7), uint8(2), uint8(2), uint64(1), uint64(2))    // same chip twice
	f.Add([]byte{1, 2, 3}, uint8(5), uint8(0), uint8(4), uint64(0), uint64(0)) // no corruption at all

	f.Fuzz(func(t *testing.T, payload []byte, lineSel, chipA, chipB uint8, maskA, maskB uint64) {
		const lines = 16
		a, m := newMemory(t, lines)

		want := make([]byte, LineSize)
		copy(want, payload)
		line := uint64(lineSel) % lines
		if err := a.Write(line, want); err != nil {
			t.Fatalf("Write: %v", err)
		}

		addr := m.Layout().DataAddr(line)
		var faults []ChipFault
		for _, c := range []struct {
			chip uint8
			mask uint64
		}{{chipA, maskA}, {chipB, maskB}} {
			if c.mask == 0 {
				continue
			}
			var cf ChipFault
			cf.Chip = int(c.chip) % dimm.Chips
			for b := 0; b < 8; b++ {
				cf.Mask[b] = byte(c.mask >> (8 * b))
			}
			faults = append(faults, cf)
		}
		if err := m.InjectTransients(addr, faults); err != nil {
			t.Fatalf("InjectTransients(%v): %v", faults, err)
		}

		got := make([]byte, LineSize)
		_, err := a.Read(line, got)
		if err == nil {
			if !bytes.Equal(got, want) {
				t.Fatalf("SDC: read returned wrong data after corrupting %v", faults)
			}
		} else if !IsFailClosed(err) {
			t.Fatalf("read failed open: %v", err)
		} else {
			// Fail-closed must be sticky until a heal: the re-read
			// poisons fast, and still never returns data.
			if _, err2 := a.Read(line, got); !IsFailClosed(err2) {
				t.Fatalf("re-read after %v returned %v, want fail-closed", err, err2)
			}
			// A rewrite heals the line.
			if err := a.Write(line, want); err != nil {
				t.Fatalf("healing write: %v", err)
			}
			if _, err := a.Read(line, got); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("line not healed by write: %v", err)
			}
		}

		// Same-chip double injection is single-chip corruption and must
		// always reconstruct; distinct-chip non-empty masks must always
		// fail closed. Check the error matched the fault geometry.
		if len(faults) == 2 && faults[0].Chip != faults[1].Chip && err == nil {
			t.Fatalf("two-chip corruption %v read back clean", faults)
		}
		if (len(faults) < 2 || faults[0].Chip == faults[1].Chip) && err != nil {
			t.Fatalf("≤1-chip corruption %v failed closed: %v", faults, err)
		}
	})
}
