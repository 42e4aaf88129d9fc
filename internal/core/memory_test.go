package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"synergy/internal/dimm"
	"synergy/internal/integrity"
)

func newMemory(t testing.TB, dataLines uint64) *Memory {
	t.Helper()
	m, err := New(Config{DataLines: dataLines})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func fillLine(seed byte) []byte {
	b := make([]byte, LineSize)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func mustRead(t *testing.T, m *Memory, i uint64) ([]byte, ReadInfo) {
	t.Helper()
	buf := make([]byte, LineSize)
	info, err := m.Read(i, buf)
	if err != nil {
		t.Fatalf("Read(%d): %v", i, err)
	}
	return buf, info
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted zero DataLines")
	}
	if _, err := New(Config{DataLines: 8, EncKey: []byte{1}}); err == nil {
		t.Fatal("New accepted short enc key")
	}
	if _, err := New(Config{DataLines: 8, MACKey: []byte{1}}); err == nil {
		t.Fatal("New accepted short MAC key")
	}
}

func TestReadOfFreshMemoryIsZero(t *testing.T) {
	m := newMemory(t, 64)
	got, info := mustRead(t, m, 17)
	if !bytes.Equal(got, make([]byte, LineSize)) {
		t.Fatal("fresh line not zero")
	}
	if info.Corrected {
		t.Fatal("fresh read reported a correction")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := newMemory(t, 64)
	for _, i := range []uint64{0, 1, 7, 8, 31, 63} {
		want := fillLine(byte(i))
		if err := m.Write(i, want); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
		got, info := mustRead(t, m, i)
		if !bytes.Equal(got, want) {
			t.Fatalf("line %d round trip mismatch", i)
		}
		if info.Corrected {
			t.Fatalf("line %d: spurious correction", i)
		}
	}
}

func TestOverwriteChangesCiphertext(t *testing.T) {
	m := newMemory(t, 16)
	plain := fillLine(1)
	m.Write(3, plain)
	l1, _ := m.Module().ReadLine(m.Layout().DataAddr(3))
	m.Write(3, plain) // same plaintext again
	l2, _ := m.Module().ReadLine(m.Layout().DataAddr(3))
	if bytes.Equal(l1.Data[:], l2.Data[:]) {
		t.Fatal("re-encryption with bumped counter produced identical ciphertext")
	}
	got, _ := mustRead(t, m, 3)
	if !bytes.Equal(got, plain) {
		t.Fatal("round trip after overwrite failed")
	}
}

func TestReadWriteBoundsAndSizes(t *testing.T) {
	m := newMemory(t, 8)
	buf := make([]byte, LineSize)
	if _, err := m.Read(8, buf); err == nil {
		t.Fatal("Read past end succeeded")
	}
	if err := m.Write(8, buf); err == nil {
		t.Fatal("Write past end succeeded")
	}
	if _, err := m.Read(0, make([]byte, 32)); err == nil {
		t.Fatal("short Read buffer accepted")
	}
	if err := m.Write(0, make([]byte, 32)); err == nil {
		t.Fatal("short Write buffer accepted")
	}
}

// --- Fig. 7 scenario D: errors in the data cacheline ---

func TestCorrectsTransientFaultOnEveryDataChip(t *testing.T) {
	for chip := 0; chip < dimm.DataChips; chip++ {
		m := newMemory(t, 64)
		want := fillLine(0x30)
		m.Write(5, want)
		addr := m.Layout().DataAddr(5)
		if err := m.Module().InjectTransient(addr, chip, [8]byte{0xDE, 0xAD}); err != nil {
			t.Fatal(err)
		}
		got, info := mustRead(t, m, 5)
		if !bytes.Equal(got, want) {
			t.Fatalf("chip %d: data not recovered", chip)
		}
		if !info.Corrected {
			t.Fatalf("chip %d: correction not reported", chip)
		}
		if len(info.FaultyChips) != 1 || info.FaultyChips[0] != chip {
			t.Fatalf("chip %d: identified chips %v", chip, info.FaultyChips)
		}
		if info.MACRecomputations > 16 {
			t.Fatalf("chip %d: %d MAC recomputations > 16", chip, info.MACRecomputations)
		}
		// The corrected line was written back: the next read is clean.
		_, info2 := mustRead(t, m, 5)
		if info2.Corrected {
			t.Fatalf("chip %d: transient fault not healed by write-back", chip)
		}
	}
}

func TestCorrectsMACChipFault(t *testing.T) {
	m := newMemory(t, 64)
	want := fillLine(0x41)
	m.Write(9, want)
	addr := m.Layout().DataAddr(9)
	if err := m.Module().InjectTransient(addr, dimm.ECCChip, [8]byte{0xFF, 0, 0xFF}); err != nil {
		t.Fatal(err)
	}
	got, info := mustRead(t, m, 9)
	if !bytes.Equal(got, want) {
		t.Fatal("data not recovered after MAC-chip fault")
	}
	if !info.Corrected || info.FaultyChips[0] != dimm.ECCChip {
		t.Fatalf("info = %+v, want MAC chip identified", info)
	}
	// MAC-chip reconstruction reuses the data MAC: zero recomputations.
	if info.MACRecomputations != 0 {
		t.Fatalf("MAC-chip fix took %d recomputations, want 0", info.MACRecomputations)
	}
}

// --- Fig. 7 scenarios B, C: errors in counter / tree cachelines ---

func TestCorrectsCounterLineChipFault(t *testing.T) {
	m := newMemory(t, 64)
	want := fillLine(0x52)
	m.Write(12, want)
	ctrAddr, slot := m.Layout().CounterAddr(12)
	// Corrupt the chip holding data line 12's own counter.
	if err := m.Module().InjectTransient(ctrAddr, slot, [8]byte{0x0F, 0xF0}); err != nil {
		t.Fatal(err)
	}
	m.FlushNodeCache() // force the walk back to the corrupted memory
	got, info := mustRead(t, m, 12)
	if !bytes.Equal(got, want) {
		t.Fatal("data not recovered after counter corruption")
	}
	if !info.Corrected {
		t.Fatal("no correction reported")
	}
	foundCounter := false
	for _, r := range info.CorrectedRegions {
		if r == RegionCounter {
			foundCounter = true
		}
	}
	if !foundCounter {
		t.Fatalf("corrected regions %v, want counter", info.CorrectedRegions)
	}
}

func TestCorrectsCounterLineFaultOnForeignSlot(t *testing.T) {
	// Corrupting a *different* counter in the same line must still be
	// detected (the line MAC covers all 8) and corrected.
	m := newMemory(t, 64)
	want := fillLine(0x63)
	m.Write(16, want) // counter line slot 0
	ctrAddr, _ := m.Layout().CounterAddr(16)
	if err := m.Module().InjectTransient(ctrAddr, 5, [8]byte{1}); err != nil {
		t.Fatal(err)
	}
	m.FlushNodeCache()
	got, info := mustRead(t, m, 16)
	if !bytes.Equal(got, want) || !info.Corrected {
		t.Fatalf("foreign-slot counter fault not corrected: %+v", info)
	}
}

func TestCorrectsTreeLineChipFault(t *testing.T) {
	m := newMemory(t, 512) // counter lines: 64 -> tree levels 8, 1
	want := fillLine(0x74)
	m.Write(100, want)
	treeAddr := m.Layout().TreeAddr(0, 1) // parent of counter lines 8..15; line 100 -> ctr line 12
	if err := m.Module().InjectTransient(treeAddr, 4, [8]byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	m.FlushNodeCache()
	got, info := mustRead(t, m, 100)
	if !bytes.Equal(got, want) {
		t.Fatal("data not recovered after tree-node corruption")
	}
	foundTree := false
	for _, r := range info.CorrectedRegions {
		if r == RegionTree {
			foundTree = true
		}
	}
	if !foundTree {
		t.Fatalf("corrected regions %v, want tree", info.CorrectedRegions)
	}
}

func TestSimultaneousCounterAndDataFault(t *testing.T) {
	// Errors at two different levels of the same path (one chip each)
	// are both correctable: the downward pass fixes the counter first,
	// then the data (Fig. 7c).
	m := newMemory(t, 64)
	want := fillLine(0x85)
	m.Write(20, want)
	ctrAddr, slot := m.Layout().CounterAddr(20)
	m.Module().InjectTransient(ctrAddr, slot, [8]byte{0x11})
	m.Module().InjectTransient(m.Layout().DataAddr(20), 3, [8]byte{0x22})
	m.FlushNodeCache()
	got, info := mustRead(t, m, 20)
	if !bytes.Equal(got, want) {
		t.Fatal("data not recovered after counter+data faults")
	}
	if len(info.CorrectedRegions) < 2 {
		t.Fatalf("corrected regions %v, want counter and data", info.CorrectedRegions)
	}
}

// --- Parity-region faults ---

func TestParityFaultAloneIsHarmless(t *testing.T) {
	m := newMemory(t, 64)
	want := fillLine(0x96)
	m.Write(24, want)
	pAddr, slot := m.Layout().ParityAddr(24)
	m.Module().InjectTransient(pAddr, slot, [8]byte{0xFF})
	got, info := mustRead(t, m, 24)
	if !bytes.Equal(got, want) || info.Corrected {
		t.Fatalf("parity-only fault affected a clean read: %+v", info)
	}
}

func TestOverlappingDataAndParityFaultUsesParityP(t *testing.T) {
	// Fig. 7 corner case: the data line and its parity are both on the
	// failed chip (in separate cachelines). ParityP reconstructs the
	// parity, which then reconstructs the data.
	m := newMemory(t, 64)
	want := fillLine(0xA7)
	const line = 26
	m.Write(line, want)
	lay := m.Layout()
	pAddr, slot := lay.ParityAddr(line)
	// Corrupt the data line on chip `slot` AND the parity slot itself
	// (which lives on chip `slot` of the parity line).
	m.Module().InjectTransient(lay.DataAddr(line), slot, [8]byte{0x5A})
	m.Module().InjectTransient(pAddr, slot, [8]byte{0xC3})
	got, info := mustRead(t, m, line)
	if !bytes.Equal(got, want) {
		t.Fatal("data not recovered in overlapping data+parity fault")
	}
	if !info.UsedParityP {
		t.Fatalf("expected ParityP use: %+v", info)
	}
	if info.MACRecomputations > 16 {
		t.Fatalf("%d MAC recomputations > 16", info.MACRecomputations)
	}
}

// --- Uncorrectable scenarios fail closed ---

func TestTwoChipDataFaultDeclaresAttack(t *testing.T) {
	m := newMemory(t, 64)
	m.Write(30, fillLine(0xB8))
	addr := m.Layout().DataAddr(30)
	m.Module().InjectTransient(addr, 1, [8]byte{0x01})
	m.Module().InjectTransient(addr, 6, [8]byte{0x02})
	buf := make([]byte, LineSize)
	if _, err := m.Read(30, buf); !errors.Is(err, ErrAttack) {
		t.Fatalf("two-chip fault: err = %v, want ErrAttack", err)
	}
	if m.Stats().AttacksDeclared == 0 {
		t.Fatal("attack not counted")
	}
}

func TestMultiChipCounterFaultDeclaresAttack(t *testing.T) {
	m := newMemory(t, 64)
	m.Write(31, fillLine(0xC9))
	ctrAddr, _ := m.Layout().CounterAddr(31)
	m.Module().InjectTransient(ctrAddr, 0, [8]byte{0x01})
	m.Module().InjectTransient(ctrAddr, 7, [8]byte{0x02})
	m.FlushNodeCache()
	buf := make([]byte, LineSize)
	if _, err := m.Read(31, buf); !errors.Is(err, ErrAttack) {
		t.Fatalf("err = %v, want ErrAttack", err)
	}
}

func TestReplayAttackDetected(t *testing.T) {
	m := newMemory(t, 64)
	const line = 33
	lay := m.Layout()
	m.Write(line, fillLine(0x01))
	// Adversary snapshots the {data, MAC} tuple...
	old, err := m.Module().ReadLine(lay.DataAddr(line))
	if err != nil {
		t.Fatal(err)
	}
	// ...the memory moves on...
	m.Write(line, fillLine(0x02))
	// ...and the adversary replays the stale tuple.
	if err := m.Module().WriteLine(lay.DataAddr(line), old.Data[:], old.ECC[:]); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, LineSize)
	if _, err := m.Read(line, buf); !errors.Is(err, ErrAttack) {
		t.Fatalf("replayed tuple: err = %v, want ErrAttack", err)
	}
}

func TestFullTupleReplayDetectedViaTree(t *testing.T) {
	// Replaying {data, MAC, counter-line} together must still fail: the
	// counter line's MAC is bound to the (advanced) tree counter above.
	m := newMemory(t, 64)
	const line = 34
	lay := m.Layout()
	m.Write(line, fillLine(0x0A))
	oldData, _ := m.Module().ReadLine(lay.DataAddr(line))
	ctrAddr, _ := lay.CounterAddr(line)
	oldCtr, _ := m.Module().ReadLine(ctrAddr)
	m.Write(line, fillLine(0x0B))
	m.Module().WriteLine(lay.DataAddr(line), oldData.Data[:], oldData.ECC[:])
	m.Module().WriteLine(ctrAddr, oldCtr.Data[:], oldCtr.ECC[:])
	buf := make([]byte, LineSize)
	if _, err := m.Read(line, buf); !errors.Is(err, ErrAttack) {
		t.Fatalf("full-tuple replay: err = %v, want ErrAttack", err)
	}
}

// Single-chip bit-flip attacks (Rowhammer-style, §IV-B) are corrected,
// not just detected.
func TestRowhammerWithinOneChipIsCorrected(t *testing.T) {
	m := newMemory(t, 64)
	want := fillLine(0xDB)
	m.Write(40, want)
	// Many bit flips, all within chip 2's slice.
	m.Module().InjectTransient(m.Layout().DataAddr(40), 2, [8]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	got, info := mustRead(t, m, 40)
	if !bytes.Equal(got, want) || !info.Corrected {
		t.Fatal("single-chip multi-bit flip not corrected")
	}
}

func TestCrossChipBitFlipAttackDetected(t *testing.T) {
	m := newMemory(t, 64)
	m.Write(41, fillLine(0xEC))
	m.Module().InjectTransient(m.Layout().DataAddr(41), 0, [8]byte{0x80})
	m.Module().InjectTransient(m.Layout().DataAddr(41), 7, [8]byte{0x01})
	buf := make([]byte, LineSize)
	if _, err := m.Read(41, buf); !errors.Is(err, ErrAttack) {
		t.Fatalf("cross-chip flips: err = %v, want ErrAttack", err)
	}
}

// --- Permanent chip failure and the §IV-A scoreboard ---

func TestPermanentChipFailureScoreboard(t *testing.T) {
	m, err := New(Config{DataLines: 64, FaultThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64][]byte)
	// Populate before the chip dies; avoid lines whose parity slot is
	// on the failing chip while it is unidentified (documented residual
	// window of in-field parity maintenance).
	const badChip = 2
	var lines []uint64
	for i := uint64(0); i < 64; i++ {
		if i%8 == badChip {
			continue
		}
		lines = append(lines, i)
	}
	for _, i := range lines {
		want[i] = fillLine(byte(i))
		if err := m.Write(i, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The chip fails hard across the entire module.
	if _, err := m.Module().InjectPermanent(badChip, 0, m.Module().Lines()-1, [8]byte{0x3C, 0xC3}); err != nil {
		t.Fatal(err)
	}
	preemptiveSeen := false
	for pass := 0; pass < 3; pass++ {
		for _, i := range lines {
			got, info := mustRead(t, m, i)
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("pass %d line %d: wrong data under permanent fault", pass, i)
			}
			preemptiveSeen = preemptiveSeen || info.Preemptive
		}
	}
	if m.KnownBadChip() != badChip {
		t.Fatalf("scoreboard condemned chip %d, want %d", m.KnownBadChip(), badChip)
	}
	if !preemptiveSeen {
		t.Fatal("pre-emptive fast path never engaged")
	}
	// Writes keep working with the chip condemned.
	fresh := fillLine(0x99)
	if err := m.Write(lines[0], fresh); err != nil {
		t.Fatalf("Write under condemned chip: %v", err)
	}
	got, _ := mustRead(t, m, lines[0])
	if !bytes.Equal(got, fresh) {
		t.Fatal("write/read under condemned chip lost data")
	}
}

func TestPermanentECCChipFailure(t *testing.T) {
	// Failure of the ECC chip itself kills every MAC (data lines) and
	// every intra-line parity (node lines) — data must survive.
	m, err := New(Config{DataLines: 64, FaultThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := fillLine(0x11)
	m.Write(7, want)
	if _, err := m.Module().InjectPermanent(dimm.ECCChip, 0, m.Module().Lines()-1, [8]byte{0x77}); err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 4; pass++ {
		got, _ := mustRead(t, m, 7)
		if !bytes.Equal(got, want) {
			t.Fatalf("pass %d: wrong data under ECC-chip failure", pass)
		}
	}
	if m.KnownBadChip() != dimm.ECCChip {
		t.Fatalf("condemned chip %d, want ECC chip", m.KnownBadChip())
	}
}

// --- Scrub ---

func TestScrubHealsTransients(t *testing.T) {
	m := newMemory(t, 64)
	for i := uint64(0); i < 64; i++ {
		m.Write(i, fillLine(byte(i)))
	}
	lay := m.Layout()
	m.Module().InjectTransient(lay.DataAddr(3), 1, [8]byte{1})
	m.Module().InjectTransient(lay.DataAddr(48), 6, [8]byte{2})
	rep, err := m.Scrub(context.Background())
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.Corrected != 2 {
		t.Fatalf("Scrub corrected %d lines, want 2", rep.Corrected)
	}
	if rep.Scanned != 64 || len(rep.Poisoned) != 0 {
		t.Fatalf("Scrub report %+v, want 64 scanned, none poisoned", rep)
	}
	if rep2, _ := m.Scrub(context.Background()); rep2.Corrected != 0 {
		t.Fatalf("second Scrub corrected %d lines, want 0", rep2.Corrected)
	}
}

// --- Stats and misc ---

func TestStatsAccumulate(t *testing.T) {
	m := newMemory(t, 16)
	m.Write(1, fillLine(1))
	buf := make([]byte, LineSize)
	m.Read(1, buf)
	s := m.Stats()
	if s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("reads/writes = %d/%d", s.Reads, s.Writes)
	}
	if s.MACComputations == 0 {
		t.Fatal("no MAC computations counted")
	}
	m.Module().InjectTransient(m.Layout().DataAddr(1), 0, [8]byte{4})
	m.Read(1, buf)
	s = m.Stats()
	if s.CorrectionEvents != 1 || s.MismatchesSeen == 0 {
		t.Fatalf("corrections/mismatches = %d/%d", s.CorrectionEvents, s.MismatchesSeen)
	}
}

func TestCounterAdvancesMonotonically(t *testing.T) {
	m := newMemory(t, 8)
	lay := m.Layout()
	ctrAddr, slot := lay.CounterAddr(2)
	readCtr := func() uint64 {
		l, err := m.Module().ReadLine(ctrAddr)
		if err != nil {
			t.Fatal(err)
		}
		var n integrity.Node
		n.Unpack(&l.Data)
		return n.Counters[slot]
	}
	if c := readCtr(); c != 0 {
		t.Fatalf("initial counter %d, want 0", c)
	}
	for k := 1; k <= 5; k++ {
		m.Write(2, fillLine(byte(k)))
		if c := readCtr(); c != uint64(k) {
			t.Fatalf("after %d writes counter is %d", k, c)
		}
	}
}

// Randomized soak: interleaved writes, reads, and single-chip transient
// faults must never yield wrong data.
func TestRandomizedSoak(t *testing.T) {
	m := newMemory(t, 128)
	rng := rand.New(rand.NewSource(99))
	shadow := make(map[uint64][]byte)
	// Synergy guarantees correction only for errors confined to one chip
	// per line; track which chip holds each line's outstanding fault so
	// the injector stays within the model.
	faultChip := make(map[uint64]int)
	buf := make([]byte, LineSize)
	for op := 0; op < 2000; op++ {
		line := uint64(rng.Intn(128))
		switch rng.Intn(3) {
		case 0: // write (heals transients on the line)
			p := make([]byte, LineSize)
			rng.Read(p)
			if err := m.Write(line, p); err != nil {
				t.Fatalf("op %d: Write: %v", op, err)
			}
			shadow[line] = p
			delete(faultChip, line)
		case 1: // read (corrects and heals via write-back)
			if _, err := m.Read(line, buf); err != nil {
				t.Fatalf("op %d: Read: %v", op, err)
			}
			want := shadow[line]
			if want == nil {
				want = make([]byte, LineSize)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("op %d: line %d wrong data", op, line)
			}
			delete(faultChip, line)
		case 2: // single-chip transient fault on the data line
			chip := rng.Intn(dimm.Chips)
			if prev, ok := faultChip[line]; ok && prev != chip {
				chip = prev // keep the fault confined to one chip
			}
			var mask [8]byte
			mask[rng.Intn(8)] = byte(1 + rng.Intn(255))
			if err := m.Module().InjectTransient(m.Layout().DataAddr(line), chip, mask); err != nil {
				t.Fatal(err)
			}
			faultChip[line] = chip
		}
	}
}

func TestLayoutRegions(t *testing.T) {
	m := newMemory(t, 64)
	lay := m.Layout()
	if lay.RegionOf(lay.DataAddr(0)) != RegionData {
		t.Error("data region misclassified")
	}
	ca, _ := lay.CounterAddr(0)
	if lay.RegionOf(ca) != RegionCounter {
		t.Error("counter region misclassified")
	}
	pa, _ := lay.ParityAddr(0)
	if lay.RegionOf(pa) != RegionParity {
		t.Error("parity region misclassified")
	}
	if len(lay.TreeBase) > 0 && lay.RegionOf(lay.TreeAddr(0, 0)) != RegionTree {
		t.Error("tree region misclassified")
	}
}

func TestStorageOverheads(t *testing.T) {
	m := newMemory(t, 4096)
	ctr, par, tree := m.Layout().StorageOverheads()
	if ctr != 0.125 || par != 0.125 {
		t.Fatalf("counter/parity overheads = %v/%v, want 0.125", ctr, par)
	}
	// 8-ary tree over 512 counter lines: 64+8+1 = 73 lines ≈ 1.8%.
	if tree < 0.015 || tree > 0.02 {
		t.Fatalf("tree overhead = %v, want ≈0.018", tree)
	}
}

func TestRegionString(t *testing.T) {
	for _, tc := range []struct {
		r    Region
		want string
	}{{RegionData, "data"}, {RegionCounter, "counter"}, {RegionParity, "parity"}, {RegionTree, "tree"}} {
		if tc.r.String() != tc.want {
			t.Errorf("%v.String() = %q", tc.r, tc.r.String())
		}
	}
	if Region(9).String() == "" {
		t.Error("unknown region should stringify")
	}
}

func BenchmarkReadWithChipFault(b *testing.B) {
	m, err := New(Config{DataLines: 1024, FaultThreshold: 1 << 30}) // keep scoreboard out
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, LineSize)
	for i := uint64(0); i < 1024; i++ {
		m.Write(i, buf)
	}
	m.Module().InjectPermanent(3, 0, 1023, [8]byte{0x55})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Read(uint64(i)%1024, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// Writes must also traverse and repair a corrupted path (the write
// pipeline uses the same reconstruction engine as reads).
func TestWriteUnderCounterFault(t *testing.T) {
	m := newMemory(t, 64)
	m.Write(12, fillLine(1))
	ctrAddr, slot := m.Layout().CounterAddr(12)
	m.Module().InjectTransient(ctrAddr, slot, [8]byte{0x77})
	m.FlushNodeCache()
	// The write must correct the counter line, then proceed.
	want := fillLine(2)
	if err := m.Write(12, want); err != nil {
		t.Fatalf("Write under counter fault: %v", err)
	}
	if m.Stats().CorrectionEvents == 0 {
		t.Fatal("write path did not correct the counter line")
	}
	got, _ := mustRead(t, m, 12)
	if !bytes.Equal(got, want) {
		t.Fatal("data lost across write-path correction")
	}
}

func TestWriteUnderTreeFaultMultiChipFailsClosed(t *testing.T) {
	m := newMemory(t, 512)
	m.Write(100, fillLine(1))
	treeAddr := m.Layout().TreeAddr(0, 1)
	m.Module().InjectTransient(treeAddr, 0, [8]byte{1})
	m.Module().InjectTransient(treeAddr, 5, [8]byte{2})
	m.FlushNodeCache()
	if err := m.Write(100, fillLine(2)); !errors.Is(err, ErrAttack) {
		t.Fatalf("write over multi-chip tree fault: err = %v, want ErrAttack", err)
	}
}

// Scrub no longer aborts on an uncorrectable line: it poisons the line,
// reports it, and keeps patrolling the rest of the module. A second
// pass sees the line already poisoned and reports it again without
// burning reconstruction attempts on it.
func TestScrubContinuesPastUncorrectable(t *testing.T) {
	m := newMemory(t, 64)
	for i := uint64(0); i < 64; i++ {
		m.Write(i, fillLine(byte(i)))
	}
	// Two independent uncorrectable lines plus one correctable one
	// after the first bad line.
	for _, line := range []uint64{10, 40} {
		addr := m.Layout().DataAddr(line)
		m.Module().InjectTransient(addr, 2, [8]byte{1})
		m.Module().InjectTransient(addr, 5, [8]byte{2})
	}
	m.Module().InjectTransient(m.Layout().DataAddr(50), 1, [8]byte{4})
	rep, err := m.Scrub(context.Background())
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.Scanned != 64 {
		t.Fatalf("Scrub scanned %d lines, want all 64", rep.Scanned)
	}
	if len(rep.Poisoned) != 2 || rep.Poisoned[0] != 10 || rep.Poisoned[1] != 40 {
		t.Fatalf("Scrub poisoned %v, want [10 40]", rep.Poisoned)
	}
	if rep.Corrected != 1 {
		t.Fatalf("Scrub corrected %d lines, want 1 (line 50 past the first bad line)", rep.Corrected)
	}
	if !m.IsPoisoned(10) || !m.IsPoisoned(40) {
		t.Fatalf("poison set %v, want lines 10 and 40", m.Poisoned())
	}
	// Second pass: bad lines fast-fail (no reconstruction storm) but
	// are still reported.
	before := m.Stats().ReconstructionAttempts
	rep2, err := m.Scrub(context.Background())
	if err != nil {
		t.Fatalf("second Scrub: %v", err)
	}
	if len(rep2.Poisoned) != 2 {
		t.Fatalf("second Scrub poisoned %v, want both lines again", rep2.Poisoned)
	}
	if got := m.Stats().ReconstructionAttempts; got != before {
		t.Fatalf("second Scrub burned %d reconstruction attempts on poisoned lines", got-before)
	}
}

// A cancelled context stops a scrub pass promptly and reports how far
// it got; ScrubFrom resumes from the returned cursor.
func TestScrubContextCancel(t *testing.T) {
	m := newMemory(t, 512)
	for i := uint64(0); i < 512; i++ {
		m.Write(i, fillLine(byte(i)))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := m.Scrub(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Scrub under cancelled ctx: err = %v, want context.Canceled", err)
	}
	if rep.Scanned != 0 {
		t.Fatalf("cancelled-before-start Scrub scanned %d lines", rep.Scanned)
	}
	// Resume from the cursor and finish the pass.
	rep2, next, err := m.ScrubFrom(context.Background(), 0)
	if err != nil {
		t.Fatalf("resumed scrub: %v", err)
	}
	if next != 512 || rep2.Scanned != 512 {
		t.Fatalf("resumed scrub: next=%d scanned=%d, want 512/512", next, rep2.Scanned)
	}
}

// Property: corrections never exceed the paper's recomputation bounds,
// for any single-chip fault on any region of the path.
func TestRecomputationBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31415))
	for trial := 0; trial < 150; trial++ {
		m := newMemory(t, 512)
		line := uint64(rng.Intn(512))
		m.Write(line, fillLine(byte(trial)))
		lay := m.Layout()
		var addr uint64
		var bound int
		switch rng.Intn(3) {
		case 0:
			addr = lay.DataAddr(line)
			bound = 16
		case 1:
			addr, _ = lay.CounterAddr(line)
			bound = 8
		default:
			if len(lay.TreeBase) == 0 {
				continue
			}
			addr = lay.TreeAddr(0, uint64(rng.Intn(int(lay.TreeLines[0]))))
			bound = 8
		}
		var mask [8]byte
		mask[rng.Intn(8)] = byte(1 + rng.Intn(255))
		m.Module().InjectTransient(addr, rng.Intn(dimm.Chips), mask)
		m.FlushNodeCache()
		buf := make([]byte, LineSize)
		info, err := m.Read(line, buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if info.MACRecomputations > bound {
			t.Fatalf("trial %d: %d recomputations exceed bound %d (region pick %d)",
				trial, info.MACRecomputations, bound, bound)
		}
	}
}
