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

// FuzzPreemptiveRead drives the §IV-A pre-emptive read. It condemns a
// chip (any of the 9), writes a line under it, and optionally lands a
// transient on the condemned chip or on another one. Every read returns
// the written plaintext or fails closed. A clean steady-state read is
// served pre-emptively, and so is damage confined to the condemned chip
// — except on a line whose parity slot is the condemned chip: writing it
// degrades its group's ParityP (the residual window of DESIGN §10), so
// only the contract holds there. The group's line in that slot that was
// not rewritten is read too, through preemptData's ParityP rebuild.
//
// Run with `go test -fuzz=FuzzPreemptiveRead ./internal/core`.
func FuzzPreemptiveRead(f *testing.F) {
	f.Add(uint8(2), uint8(5), []byte("slot 2 is read through ParityP"), uint8(0), uint64(0))
	f.Add(uint8(2), uint8(2), []byte("parity slot on the dead chip"), uint8(0), uint64(0))
	f.Add(uint8(8), uint8(5), []byte{0xA5}, uint8(0), uint64(0))                 // dead MAC chip
	f.Add(uint8(3), uint8(11), []byte{1, 2, 3}, uint8(1), uint64(0x0F))          // transient on the condemned chip
	f.Add(uint8(8), uint8(0), []byte("mac"), uint8(1), uint64(1<<63))            // transient on the dead MAC chip
	f.Add(uint8(6), uint8(1), []byte("x"), uint8(2), uint64(0x8000000000000001)) // transient on another chip

	f.Fuzz(func(t *testing.T, chipSel, lineSel uint8, payload []byte, where uint8, mask uint64) {
		dead := int(chipSel) % dimm.Chips
		a, m := condemnedMemory(t, dead)
		line := uint64(lineSel) % degradedLines
		_, slot := m.Layout().ParityAddr(line)
		window := slot == dead
		want := make([]byte, LineSize)
		copy(want, payload)
		if err := a.Write(line, want); err != nil {
			t.Fatalf("write under condemned chip %d: %v", dead, err)
		}
		got := make([]byte, LineSize)
		// read checks the contract on line l; steady also requires a
		// pre-emptive success.
		read := func(l uint64, want []byte, steady bool) error {
			t.Helper()
			s0 := m.Stats()
			_, err := a.Read(l, got)
			switch {
			case err == nil && !bytes.Equal(got, want):
				t.Fatalf("SDC: chip %d condemned, line %d", dead, l)
			case err != nil && !IsFailClosed(err):
				t.Fatalf("chip %d condemned, line %d: read failed open: %v", dead, l, err)
			case steady && err != nil:
				t.Fatalf("chip %d condemned, line %d: steady-state read failed: %v", dead, l, err)
			case steady && m.Stats().PreemptiveFixes == s0.PreemptiveFixes:
				t.Fatalf("chip %d condemned, line %d: steady-state read was not pre-emptive", dead, l)
			}
			return err
		}
		read(line, want, !window)
		if dead < dimm.DataChips && !window {
			other := line - uint64(slot) + uint64(dead)
			read(other, fillLine(byte(other)), true)
		}

		chip := -1
		switch where % 3 {
		case 1:
			chip = dead
		case 2:
			chip = (dead + 1 + int(where/3)%(dimm.Chips-1)) % dimm.Chips
		}
		if chip < 0 || mask == 0 {
			read(line, want, !window)
			return
		}
		var mk [dimm.SliceSize]byte
		for b := range mk {
			mk[b] = byte(mask >> (8 * b))
		}
		if err := m.InjectTransient(m.Layout().DataAddr(line), chip, mk); err != nil {
			t.Fatal(err)
		}
		if err := read(line, want, chip == dead && !window); err != nil {
			// Two damaged chips, one parity: a rewrite heals the line.
			if err := a.Write(line, want); err != nil {
				t.Fatalf("healing write: %v", err)
			}
		}
		read(line, want, !window)
	})
}
