package core

import (
	"bytes"
	"errors"
	"testing"

	"synergy/internal/dimm"
)

// corruptTwoChips makes data line i uncorrectable: two distinct chips'
// stored slices are flipped, which exceeds the single-chip correction
// budget of the 9-chip parity.
func corruptTwoChips(m *Memory, i uint64) {
	addr := m.Layout().DataAddr(i)
	m.Module().InjectTransient(addr, 2, [8]byte{1})
	m.Module().InjectTransient(addr, 5, [8]byte{2})
}

// The poison lifecycle: an uncorrectable read declares ErrAttack once
// and poisons the line; later reads fail fast with ErrPoisoned instead
// of re-running the 16-attempt reconstruction; a successful Write
// re-seals the line and clears the poison.
func TestPoisonLifecycle(t *testing.T) {
	a, m := newMemory(t, 64)
	for i := uint64(0); i < 64; i++ {
		a.Write(i, fillLine(byte(i)))
	}
	corruptTwoChips(m, 7)
	buf := make([]byte, LineSize)

	if _, err := a.Read(7, buf); !errors.Is(err, ErrAttack) {
		t.Fatalf("first read: err = %v, want ErrAttack", err)
	}
	if !m.IsPoisoned(7) {
		t.Fatal("line 7 not poisoned after uncorrectable read")
	}
	if got := a.Poisoned(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("Poisoned() = %v, want [7]", got)
	}

	// Fast-fail: no reconstruction attempts, no new attack declarations.
	s0 := m.Stats()
	for k := 0; k < 4; k++ {
		if _, err := a.Read(7, buf); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("poisoned read %d: err = %v, want ErrPoisoned", k, err)
		}
	}
	s1 := m.Stats()
	if s1.ReconstructionAttempts != s0.ReconstructionAttempts {
		t.Fatalf("poisoned reads ran %d reconstruction attempts",
			s1.ReconstructionAttempts-s0.ReconstructionAttempts)
	}
	if s1.AttacksDeclared != s0.AttacksDeclared {
		t.Fatal("poisoned reads re-declared the attack")
	}
	if s1.PoisonFastFails != s0.PoisonFastFails+4 {
		t.Fatalf("PoisonFastFails = %d, want %d", s1.PoisonFastFails, s0.PoisonFastFails+4)
	}
	if s1.LinesPoisoned != 1 {
		t.Fatalf("LinesPoisoned = %d, want 1", s1.LinesPoisoned)
	}

	// Healing: a write re-seals the line (fresh data, MAC, parity) and
	// clears the poison.
	want := fillLine(0xEE)
	if err := a.Write(7, want); err != nil {
		t.Fatalf("healing write: %v", err)
	}
	if m.IsPoisoned(7) {
		t.Fatal("line still poisoned after successful write")
	}
	got, _ := mustRead(t, a, 7)
	if !bytes.Equal(got, want) {
		t.Fatal("wrong data after healing write")
	}
	if s := m.Stats(); s.LinesHealed != 1 {
		t.Fatalf("LinesHealed = %d, want 1", s.LinesHealed)
	}
	// Other lines were never affected.
	if got, _ := mustRead(t, a, 8); !bytes.Equal(got, fillLine(8)) {
		t.Fatal("neighbor line damaged")
	}
}

// Poisoning one line must not slow or fail any other line.
func TestPoisonIsPerLine(t *testing.T) {
	a, m := newMemory(t, 64)
	for i := uint64(0); i < 64; i++ {
		a.Write(i, fillLine(byte(i)))
	}
	corruptTwoChips(m, 30)
	buf := make([]byte, LineSize)
	if _, err := a.Read(30, buf); !errors.Is(err, ErrAttack) {
		t.Fatalf("read 30: %v", err)
	}
	for i := uint64(0); i < 64; i++ {
		if i == 30 {
			continue
		}
		if got, _ := mustRead(t, a, i); !bytes.Equal(got, fillLine(byte(i))) {
			t.Fatalf("line %d wrong after poisoning line 30", i)
		}
	}
}

// RepairChip after a permanent whole-chip failure: the scoreboard reset
// restores full-speed reads (no preemptive fixes, no corrections), and
// lines the dead chip had made uncorrectable heal.
func TestRepairChipRestoresFullSpeed(t *testing.T) {
	const badChip = 3
	a, m := newMemory(t, 64)
	for i := uint64(0); i < 64; i++ {
		a.Write(i, fillLine(byte(i)))
	}
	// Second stored fault on line 9: with the chip-3 read-path fault
	// active the line has two bad chips and is uncorrectable.
	m.Module().InjectTransient(m.Layout().DataAddr(9), 6, [8]byte{0x40})
	if _, err := m.Module().InjectPermanent(badChip, 0, m.Module().Lines()-1, [8]byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	m.FlushNodeCache()

	buf := make([]byte, LineSize)
	for i := uint64(0); i < 64; i++ {
		_, err := a.Read(i, buf)
		if i == 9 {
			if !errors.Is(err, ErrAttack) {
				t.Fatalf("line 9 under two faults: err = %v, want ErrAttack", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("read %d under chip fault: %v", i, err)
		}
	}
	if m.KnownBadChip() != badChip {
		t.Fatalf("condemned chip %d, want %d", m.KnownBadChip(), badChip)
	}
	if !m.IsPoisoned(9) {
		t.Fatal("line 9 not poisoned")
	}

	// Chip replacement.
	if err := a.RepairChip(0, badChip); err != nil {
		t.Fatalf("RepairChip: %v", err)
	}
	if m.KnownBadChip() != -1 {
		t.Fatalf("scoreboard still condemns chip %d after repair", m.KnownBadChip())
	}
	if m.IsPoisoned(9) {
		t.Fatal("line 9 still poisoned: repair removed one of its two faults, the other is single-chip-correctable")
	}
	s := m.Stats()
	if s.ChipRepairs != 1 {
		t.Fatalf("ChipRepairs = %d, want 1", s.ChipRepairs)
	}

	// Full-speed check via Stats: a post-repair sweep must not trigger
	// any correction machinery.
	s0 := m.Stats()
	for i := uint64(0); i < 64; i++ {
		if got, _ := mustRead(t, a, i); !bytes.Equal(got, fillLine(byte(i))) {
			t.Fatalf("line %d wrong after repair", i)
		}
	}
	s1 := m.Stats()
	if s1.CorrectionEvents != s0.CorrectionEvents ||
		s1.PreemptiveFixes != s0.PreemptiveFixes ||
		s1.ReconstructionAttempts != s0.ReconstructionAttempts {
		t.Fatalf("post-repair sweep still correcting: %+v -> %+v", s0, s1)
	}
}

// RepairChip with stored corruption: every slice the chip held is
// rebuilt from parity, including counter, parity and tree lines.
func TestRepairChipRebuildsStoredSlices(t *testing.T) {
	for _, chip := range []int{0, 4, dimm.ECCChip} {
		a, m := newMemory(t, 128)
		for i := uint64(0); i < 128; i++ {
			a.Write(i, fillLine(byte(i)^byte(chip)))
		}
		// Trash the chip's stored slice on every module line — data,
		// counters, parity and tree alike (a dead chip returns garbage).
		for addr := uint64(0); addr < m.Module().Lines(); addr++ {
			m.Module().InjectTransient(addr, chip, [8]byte{0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF})
		}
		m.FlushNodeCache()
		if err := a.RepairChip(0, chip); err != nil {
			t.Fatalf("chip %d: RepairChip: %v", chip, err)
		}
		for i := uint64(0); i < 128; i++ {
			got, info := mustRead(t, a, i)
			if !bytes.Equal(got, fillLine(byte(i)^byte(chip))) {
				t.Fatalf("chip %d: line %d wrong after rebuild", chip, i)
			}
			if info.Corrected {
				t.Fatalf("chip %d: line %d still needed correction after rebuild", chip, i)
			}
		}
		if got := a.Poisoned(); len(got) != 0 {
			t.Fatalf("chip %d: poisoned lines after full rebuild: %v", chip, got)
		}
	}
}

func TestRepairChipValidation(t *testing.T) {
	a, _ := newMemory(t, 8)
	if err := a.RepairChip(0, -1); err == nil {
		t.Fatal("accepted chip -1")
	}
	if err := a.RepairChip(0, dimm.Chips); err == nil {
		t.Fatalf("accepted chip %d", dimm.Chips)
	}
}

// Array-level wrappers: global line numbering in Poisoned and
// rank-routed RepairChip.
func TestArrayPoisonAndRepair(t *testing.T) {
	a := newArray(t, 64, 2)
	for i := uint64(0); i < 64; i++ {
		a.Write(i, fillLine(byte(i)))
	}
	// Global line 13 lives on rank 1 (13 % 2), inner line 6. A chip-1
	// read-path fault plus a stored transient on chip 4 make it
	// uncorrectable; replacing chip 1 leaves the single-chip-correctable
	// transient, which the repair sweep heals.
	m := a.Rank(1)
	addr := m.Layout().DataAddr(6)
	if _, err := m.Module().InjectPermanent(1, 0, m.Module().Lines()-1, [8]byte{0x80}); err != nil {
		t.Fatal(err)
	}
	m.Module().InjectTransient(addr, 4, [8]byte{2})
	m.FlushNodeCache()
	buf := make([]byte, LineSize)
	if _, err := a.Read(13, buf); !errors.Is(err, ErrAttack) {
		t.Fatalf("read 13: %v", err)
	}
	if got := a.Poisoned(); len(got) != 1 || got[0] != 13 {
		t.Fatalf("Array.Poisoned() = %v, want [13]", got)
	}
	if err := a.RepairChip(1, 1); err != nil {
		t.Fatalf("RepairChip: %v", err)
	}
	if got := a.Poisoned(); len(got) != 0 {
		t.Fatalf("poisoned after repair: %v", got)
	}
	if err := a.RepairChip(5, 0); err == nil {
		t.Fatal("accepted out-of-range rank")
	}
	if s := a.Stats(); s.ChipRepairs != 1 || s.LinesPoisoned != 1 {
		t.Fatalf("aggregated stats: %+v", s)
	}
}
