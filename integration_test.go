// Integration tests across the repository's systems: the functional
// Synergy engine must actually deliver the guarantees the reliability
// Monte Carlo credits it with, and the performance engines must agree
// with the functional engine about what traffic exists.
package synergy_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"synergy/internal/core"
	"synergy/internal/dimm"
	"synergy/internal/secmem"
)

// The reliability simulator classifies "one faulty chip per 9-chip
// rank" as correctable for Synergy. Drive the byte-accurate engine
// through every chip and every fault footprint shape and verify the
// classification holds end to end.
func TestFunctionalEngineMatchesReliabilityModelSingleChip(t *testing.T) {
	const lines = 256
	for chip := 0; chip < dimm.Chips; chip++ {
		for _, shape := range []struct {
			name   string
			lo, hi uint64 // fraction of the module's address space
		}{
			{"row-like", 10, 20},
			{"bank-like", 0, 127},
			{"whole-chip", 0, ^uint64(0)},
		} {
			arr, err := core.NewArray(core.Config{DataLines: lines, FaultThreshold: 3})
			if err != nil {
				t.Fatal(err)
			}
			mem := arr.Rank(0)
			want := make([][]byte, lines)
			for i := range want {
				want[i] = bytes.Repeat([]byte{byte(i), byte(chip)}, core.LineSize/2)
				if err := arr.Write(uint64(i), want[i]); err != nil {
					t.Fatal(err)
				}
			}
			hi := shape.hi
			if hi > mem.Module().Lines()-1 {
				hi = mem.Module().Lines() - 1
			}
			if _, err := mem.Module().InjectPermanent(chip, shape.lo, hi, [8]byte{0x99, 0x66}); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, core.LineSize)
			for i := 0; i < lines; i++ {
				if _, err := arr.Read(uint64(i), buf); err != nil {
					t.Fatalf("chip %d %s: line %d unrecoverable: %v", chip, shape.name, i, err)
				}
				if !bytes.Equal(buf, want[i]) {
					t.Fatalf("chip %d %s: line %d wrong data", chip, shape.name, i)
				}
			}
		}
	}
}

// Two faulty chips in the rank must be *detected* (attack, fail-closed)
// on any line where both footprints intersect — never silently wrong.
func TestFunctionalEngineFailsClosedOnTwoChips(t *testing.T) {
	arr, err := core.NewArray(core.Config{DataLines: 64})
	if err != nil {
		t.Fatal(err)
	}
	mem := arr.Rank(0)
	want := make([][]byte, 64)
	for i := range want {
		want[i] = bytes.Repeat([]byte{byte(i)}, core.LineSize)
		arr.Write(uint64(i), want[i])
	}
	end := mem.Module().Lines() - 1
	mem.Module().InjectPermanent(1, 0, end, [8]byte{0x0F})
	mem.Module().InjectPermanent(5, 0, end, [8]byte{0xF0})
	buf := make([]byte, core.LineSize)
	for i := uint64(0); i < 64; i++ {
		_, err := arr.Read(i, buf)
		if err == nil {
			// The engine may only succeed if the data is right.
			if !bytes.Equal(buf, want[i]) {
				t.Fatalf("line %d: silent corruption under two-chip fault", i)
			}
			continue
		}
		if !errors.Is(err, core.ErrAttack) {
			t.Fatalf("line %d: unexpected error %v", i, err)
		}
	}
	if mem.Stats().AttacksDeclared == 0 {
		t.Fatal("no attacks declared under a two-chip fault")
	}
}

// The performance model's claim that Synergy has zero MAC traffic and
// the functional engine's layout must agree: the functional engine has
// no MAC region at all (the MAC rides in the ECC chip), while SGX-class
// layouts need one. This pins the core architectural claim from both
// sides.
func TestSynergyMACColocationConsistency(t *testing.T) {
	// Functional side: a data line's module footprint is exactly one
	// line (data+MAC together); verifying needs no second line beyond
	// the counter path.
	arr, err := core.NewArray(core.Config{DataLines: 64})
	if err != nil {
		t.Fatal(err)
	}
	mem := arr.Rank(0)
	lay := mem.Layout()
	ctr, par, _ := lay.StorageOverheads()
	if ctr != 0.125 || par != 0.125 {
		t.Fatalf("overheads = %v/%v, want 0.125 each (no separate MAC region)", ctr, par)
	}

	// Performance side: Synergy's expansion of a read miss contains no
	// MAC transaction; SGX_O's contains exactly one.
	for _, tc := range []struct {
		design secmem.Design
		macTxs int
	}{{secmem.Synergy, 0}, {secmem.SGXO, 1}} {
		h, err := secmem.New(secmem.DefaultConfig(tc.design))
		if err != nil {
			t.Fatal(err)
		}
		_, txs := h.Read(12345)
		got := 0
		for _, tx := range txs {
			if tx.Cat == secmem.CatMAC {
				got++
			}
		}
		if got != tc.macTxs {
			t.Fatalf("%v: %d MAC transactions, want %d", tc.design, got, tc.macTxs)
		}
	}
}

// Long-running randomized cross-check: a sequence of reads, writes,
// transient faults (single chip at a time per line) and scrubs must
// never produce wrong data or an unwarranted attack.
func TestEndToEndSoakWithScrubbing(t *testing.T) {
	arr, err := core.NewArray(core.Config{DataLines: 96})
	if err != nil {
		t.Fatal(err)
	}
	mem := arr.Rank(0)
	rng := rand.New(rand.NewSource(2024))
	shadow := map[uint64][]byte{}
	faulted := map[uint64]int{}
	buf := make([]byte, core.LineSize)
	for op := 0; op < 4000; op++ {
		line := uint64(rng.Intn(96))
		switch rng.Intn(5) {
		case 0, 1:
			p := make([]byte, core.LineSize)
			rng.Read(p)
			if err := arr.Write(line, p); err != nil {
				t.Fatalf("op %d write: %v", op, err)
			}
			shadow[line] = p
			delete(faulted, line)
		case 2, 3:
			if _, err := arr.Read(line, buf); err != nil {
				t.Fatalf("op %d read(%d): %v", op, line, err)
			}
			want := shadow[line]
			if want == nil {
				want = make([]byte, core.LineSize)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("op %d: line %d wrong data", op, line)
			}
			delete(faulted, line)
		case 4:
			chip := rng.Intn(dimm.Chips)
			if prev, ok := faulted[line]; ok {
				chip = prev
			}
			var mask [8]byte
			mask[rng.Intn(8)] = byte(1 + rng.Intn(255))
			if err := mem.Module().InjectTransient(mem.Layout().DataAddr(line), chip, mask); err != nil {
				t.Fatal(err)
			}
			faulted[line] = chip
		}
		if op%1000 == 999 {
			if _, err := arr.Scrub(context.Background()); err != nil {
				t.Fatalf("op %d scrub: %v", op, err)
			}
			faulted = map[uint64]int{}
		}
	}
}

// Odd-sized memories (data lines not a multiple of 8) must still lay
// out, protect and correct properly — partial counter and parity groups
// are a real corner of the address map.
func TestOddSizedMemory(t *testing.T) {
	for _, n := range []uint64{1, 3, 7, 9, 13, 65} {
		arr, err := core.NewArray(core.Config{DataLines: n})
		if err != nil {
			t.Fatalf("DataLines=%d: %v", n, err)
		}
		mem := arr.Rank(0)
		want := make([][]byte, n)
		for i := uint64(0); i < n; i++ {
			want[i] = bytes.Repeat([]byte{byte(i + 1)}, core.LineSize)
			if err := arr.Write(i, want[i]); err != nil {
				t.Fatalf("n=%d write(%d): %v", n, i, err)
			}
		}
		// Fault the last line (partial parity group) and correct it.
		last := n - 1
		if err := mem.Module().InjectTransient(mem.Layout().DataAddr(last), 0, [8]byte{0xEE}); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, core.LineSize)
		info, err := arr.Read(last, buf)
		if err != nil {
			t.Fatalf("n=%d read(last): %v", n, err)
		}
		if !bytes.Equal(buf, want[last]) || !info.Corrected {
			t.Fatalf("n=%d: partial-group correction failed", n)
		}
	}
}
