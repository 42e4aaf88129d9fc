package core

import (
	"bytes"
	"math/rand"
	"testing"

	"synergy/internal/dimm"
)

// raid3 is the byte-wise RAID-3 reconstruction of paper Fig. 5(b): chip
// c's slice rebuilt as parity XOR every other slice, one byte at a time.
func raid3(slices [][]byte, c int, parity []byte) []byte {
	rec := append([]byte(nil), parity...)
	for k, s := range slices {
		if k == c {
			continue
		}
		for b := range rec {
			rec[b] ^= s[b]
		}
	}
	return rec
}

// The word-wise rebuilds agree with the byte-wise reference for every
// chip of both line kinds, on arbitrary lines and parities: a node
// line's ParityC/ParityT and a parity line's ParityP (one case per
// slot) cover 8 slices; a data line's parity covers 8 data slices and
// the MAC.
func TestRebuildMatchesRAID3(t *testing.T) {
	cases := []struct {
		name    string
		chips   int
		rebuild func(l *dimm.Line, chip int, parity uint64)
	}{
		{"rebuildSlice", dimm.DataChips, func(l *dimm.Line, chip int, parity uint64) {
			w := rebuildSlice(&l.Data, chip, parity)
			if got := word(l.Data[chip*8:]); got != w {
				t.Fatalf("rebuildSlice returned %#x, stored %#x", w, got)
			}
		}},
		{"rebuildChip", dimm.Chips, rebuildChip},
	}
	rng := rand.New(rand.NewSource(5))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 32; trial++ {
				var l dimm.Line
				var parity [8]byte
				rng.Read(l.Data[:])
				rng.Read(l.ECC[:])
				rng.Read(parity[:])
				var slices [][]byte
				for c := 0; c < tc.chips; c++ {
					slices = append(slices, l.Slice(c))
				}
				for chip := 0; chip < tc.chips; chip++ {
					want := raid3(slices, chip, parity[:])
					got := l
					tc.rebuild(&got, chip, word(parity[:]))
					for c := 0; c < dimm.Chips; c++ {
						exp := l.Slice(c)
						if c == chip {
							exp = want
						}
						if !bytes.Equal(got.Slice(c), exp) {
							t.Fatalf("trial %d, chip %d rebuilt: slice %d is %x, want %x", trial, chip, c, got.Slice(c), exp)
						}
					}
				}
			}
		})
	}
}

// parity9 and sliceSum are the byte-wise XOR of a data line's 9 slices
// and of its 8 data slices.
func TestParityWordsMatchBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 32; trial++ {
		var l dimm.Line
		rng.Read(l.Data[:])
		rng.Read(l.ECC[:])
		var sum8, sum9 [8]byte
		for c := 0; c < dimm.Chips; c++ {
			for b, v := range l.Slice(c) {
				if c < dimm.DataChips {
					sum8[b] ^= v
				}
				sum9[b] ^= v
			}
		}
		if got := sliceSum(&l.Data); got != word(sum8[:]) {
			t.Fatalf("sliceSum = %#x, want %#x", got, word(sum8[:]))
		}
		if got := parity9(&l); got != word(sum9[:]) {
			t.Fatalf("parity9 = %#x, want %#x", got, word(sum9[:]))
		}
	}
}
