package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"synergy/internal/dimm"
	"synergy/internal/integrity"
)

func newSplitMemory(t testing.TB, dataLines uint64) (*Array, *Memory) {
	t.Helper()
	a, err := NewArray(Config{DataLines: dataLines, SplitCounters: true})
	if err != nil {
		t.Fatalf("NewArray(split): %v", err)
	}
	return a, a.ranks[0]
}

func TestSplitLayoutShrinksCounterRegion(t *testing.T) {
	_, mono := newMemory(t, 960)
	_, split := newSplitMemory(t, 960)
	if mono.Layout().CounterLines != 120 {
		t.Fatalf("monolithic counter lines = %d", mono.Layout().CounterLines)
	}
	if split.Layout().CounterLines != 20 {
		t.Fatalf("split counter lines = %d, want 20 (48 per line)", split.Layout().CounterLines)
	}
	// Parity region is unchanged (one slot per data line regardless).
	if split.Layout().ParityLines != mono.Layout().ParityLines {
		t.Fatal("parity region should not depend on counter organization")
	}
}

func TestSplitWriteReadRoundTrip(t *testing.T) {
	a, _ := newSplitMemory(t, 96)
	for _, i := range []uint64{0, 1, 47, 48, 95} {
		want := fillLine(byte(i))
		if err := a.Write(i, want); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
		got, info := mustRead(t, a, i)
		if !bytes.Equal(got, want) {
			t.Fatalf("line %d round trip mismatch", i)
		}
		if info.Corrected {
			t.Fatalf("line %d spurious correction", i)
		}
	}
}

func TestSplitFreshReadIsZero(t *testing.T) {
	a, _ := newSplitMemory(t, 96)
	got, _ := mustRead(t, a, 50)
	if !bytes.Equal(got, make([]byte, LineSize)) {
		t.Fatal("fresh split-counter line not zero")
	}
}

// 256 writes to one line overflow its 8-bit minor and force a group
// re-encryption; every line in the group must stay intact.
func TestSplitMinorOverflowReencryptsGroup(t *testing.T) {
	a, m := newSplitMemory(t, 96)
	// Populate the first group (lines 0..47).
	want := make(map[uint64][]byte)
	for i := uint64(0); i < 48; i++ {
		want[i] = fillLine(byte(i))
		if err := a.Write(i, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Hammer line 5 past the minor limit.
	for k := 0; k <= integrity.MinorMax; k++ {
		want[5] = fillLine(byte(k))
		if err := a.Write(5, want[5]); err != nil {
			t.Fatalf("write %d: %v", k, err)
		}
	}
	s := m.Stats()
	if s.GroupReencryptions != 1 {
		t.Fatalf("group re-encryptions = %d, want 1", s.GroupReencryptions)
	}
	if s.GroupLinesReencrypted != 47 {
		t.Fatalf("lines re-encrypted = %d, want 47", s.GroupLinesReencrypted)
	}
	// All group members readable and correct after re-encryption.
	buf := make([]byte, LineSize)
	for i := uint64(0); i < 48; i++ {
		if _, err := a.Read(i, buf); err != nil {
			t.Fatalf("post-overflow read(%d): %v", i, err)
		}
		if !bytes.Equal(buf, want[i]) {
			t.Fatalf("post-overflow line %d wrong data", i)
		}
	}
	// Further writes keep working.
	if err := a.Write(5, fillLine(0xAB)); err != nil {
		t.Fatal(err)
	}
	got, _ := mustRead(t, a, 5)
	if !bytes.Equal(got, fillLine(0xAB)) {
		t.Fatal("write after overflow lost data")
	}
}

func TestSplitCorrectsDataChipFault(t *testing.T) {
	a, m := newSplitMemory(t, 96)
	want := fillLine(0x5C)
	a.Write(10, want)
	m.Module().InjectTransient(m.Layout().DataAddr(10), 3, [8]byte{0xBE, 0xEF})
	got, info := mustRead(t, a, 10)
	if !bytes.Equal(got, want) || !info.Corrected {
		t.Fatal("split mode failed to correct a data chip fault")
	}
	if info.FaultyChips[0] != 3 {
		t.Fatalf("identified chips %v", info.FaultyChips)
	}
}

func TestSplitCorrectsCounterLineChipFault(t *testing.T) {
	// A chip fault on a split-counter line corrupts a major byte, six
	// minors and a MAC byte at once — all restored via ParityC.
	a, m := newSplitMemory(t, 96)
	want := fillLine(0x6D)
	a.Write(20, want)
	ctrAddr, _ := m.Layout().CounterAddr(20)
	m.Module().InjectTransient(ctrAddr, 2, [8]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	m.FlushNodeCache()
	got, info := mustRead(t, a, 20)
	if !bytes.Equal(got, want) {
		t.Fatal("data wrong after split-counter-line fault")
	}
	foundCounter := false
	for _, r := range info.CorrectedRegions {
		foundCounter = foundCounter || r == RegionCounter
	}
	if !foundCounter {
		t.Fatalf("corrected regions %v, want counter", info.CorrectedRegions)
	}
	if info.MACRecomputations > 8 {
		t.Fatalf("%d recomputations > 8 for a counter line", info.MACRecomputations)
	}
}

func TestSplitReplayStillDetected(t *testing.T) {
	a, m := newSplitMemory(t, 96)
	lay := m.Layout()
	a.Write(7, fillLine(1))
	old, _ := m.Module().ReadLine(lay.DataAddr(7))
	a.Write(7, fillLine(2))
	m.Module().WriteLine(lay.DataAddr(7), old.Data[:], old.ECC[:])
	buf := make([]byte, LineSize)
	if _, err := a.Read(7, buf); !errors.Is(err, ErrAttack) {
		t.Fatalf("replay under split counters: err = %v, want ErrAttack", err)
	}
}

func TestSplitPermanentChipFailure(t *testing.T) {
	a, err := NewArray(Config{DataLines: 96, SplitCounters: true, FaultThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := a.ranks[0]
	const badChip = 6
	want := make(map[uint64][]byte)
	var lines []uint64
	for i := uint64(0); i < 96; i++ {
		if i%8 == badChip {
			continue // parity-slot residual window (DESIGN.md §7.1)
		}
		lines = append(lines, i)
		want[i] = fillLine(byte(i))
		if err := a.Write(i, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	m.Module().InjectPermanent(badChip, 0, m.Module().Lines()-1, [8]byte{0x81})
	buf := make([]byte, LineSize)
	for pass := 0; pass < 3; pass++ {
		for _, i := range lines {
			if _, err := a.Read(i, buf); err != nil {
				t.Fatalf("pass %d line %d: %v", pass, i, err)
			}
			if !bytes.Equal(buf, want[i]) {
				t.Fatalf("pass %d line %d wrong data", pass, i)
			}
		}
	}
	if m.KnownBadChip() != badChip {
		t.Fatalf("condemned %d, want %d", m.KnownBadChip(), badChip)
	}
}

// Overflow with an outstanding fault in a *different* group line: the
// re-encryption pass must correct it through the reconstruction engine
// rather than laundering the corruption.
func TestSplitOverflowCorrectsFaultyGroupMember(t *testing.T) {
	a, m := newSplitMemory(t, 48)
	want := make(map[uint64][]byte)
	for i := uint64(0); i < 48; i++ {
		want[i] = fillLine(byte(i))
		a.Write(i, want[i])
	}
	// Fault line 30, then overflow line 2's minor.
	m.Module().InjectTransient(m.Layout().DataAddr(30), 4, [8]byte{0x44})
	for k := 0; k <= integrity.MinorMax; k++ {
		want[2] = fillLine(byte(k))
		if err := a.Write(2, want[2]); err != nil {
			t.Fatalf("write %d: %v", k, err)
		}
	}
	got, _ := mustRead(t, a, 30)
	if !bytes.Equal(got, want[30]) {
		t.Fatal("faulty group member corrupted by re-encryption")
	}
	if m.Stats().CorrectionEvents == 0 {
		t.Fatal("re-encryption pass did not correct the faulty member")
	}
}

func TestSplitRandomizedSoak(t *testing.T) {
	a, m := newSplitMemory(t, 96)
	rng := rand.New(rand.NewSource(77))
	shadow := map[uint64][]byte{}
	faultChip := map[uint64]int{}
	buf := make([]byte, LineSize)
	for op := 0; op < 1500; op++ {
		line := uint64(rng.Intn(96))
		switch rng.Intn(3) {
		case 0:
			p := make([]byte, LineSize)
			rng.Read(p)
			if err := a.Write(line, p); err != nil {
				t.Fatalf("op %d write: %v", op, err)
			}
			shadow[line] = p
			delete(faultChip, line)
		case 1:
			if _, err := a.Read(line, buf); err != nil {
				t.Fatalf("op %d read: %v", op, err)
			}
			want := shadow[line]
			if want == nil {
				want = make([]byte, LineSize)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("op %d line %d wrong data", op, line)
			}
			delete(faultChip, line)
		case 2:
			chip := rng.Intn(dimm.Chips)
			if prev, ok := faultChip[line]; ok {
				chip = prev
			}
			var mask [8]byte
			mask[rng.Intn(8)] = byte(1 + rng.Intn(255))
			m.Module().InjectTransient(m.Layout().DataAddr(line), chip, mask)
			faultChip[line] = chip
		}
	}
}
