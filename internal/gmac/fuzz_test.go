package gmac

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzSumVsHasher cross-checks the one-shot and incremental tag
// computations over arbitrary data and arbitrary write splits.
func FuzzSumVsHasher(f *testing.F) {
	f.Add(uint64(0), uint64(0), []byte(nil), uint8(0))
	f.Add(uint64(0x1000), uint64(7), []byte("sixty-four bytes of cacheline data"), uint8(3))
	f.Add(uint64(42), uint64(1), bytes.Repeat([]byte{0}, 24), uint8(1))
	m, err := New(bytes.Repeat([]byte{0x42}, KeySize))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, addr, ctr uint64, data []byte, split uint8) {
		want := m.Sum(addr, ctr, data)
		h := m.NewHasher(addr, ctr)
		// Write in chunks of size split+1 to exercise buffered tails.
		chunk := int(split) + 1
		for rest := data; len(rest) > 0; {
			k := chunk
			if k > len(rest) {
				k = len(rest)
			}
			h.Write(rest[:k])
			rest = rest[k:]
		}
		if got := h.Sum64(); got != want {
			t.Fatalf("Hasher.Sum64 = %x, Mac.Sum = %x (len %d, chunk %d)", got, want, len(data), chunk)
		}
		if !m.Verify(addr, ctr, data, want) {
			t.Fatalf("Verify rejected its own tag")
		}
	})
}

// FuzzFixedSizeTags pins the fixed-size forms, whichever way this
// platform evaluates them, against the variable-length reference: for
// any key, address, counter and line, SumLine(line) = Sum(line) =
// polyHash(line) ⊕ pad, and likewise Sum56 on the line's first 56
// bytes. Besides the all-zero and all-ones lines, the seeds include a
// line per form whose aggregated product reaches bits 124–126, so the
// reduction's second fold is exercised from the seeds alone.
func FuzzFixedSizeTags(f *testing.F) {
	const k0, k1 = 0x4242424242424242, 0x4242424242424242
	m := newKeyed(f, k0, k1)
	f.Add(uint64(k0), uint64(k1), uint64(0), uint64(0), make([]byte, LineSize))
	f.Add(uint64(k0), uint64(k1), uint64(0x1000), uint64(7), bytes.Repeat([]byte{0xff}, LineSize))
	f.Add(uint64(k0), uint64(k1), uint64(0x40), uint64(1), secondFoldLine(f, m, 0))
	f.Add(uint64(k0), uint64(k1), uint64(0x80), uint64(2), secondFoldLine(f, m, 1))
	f.Add(uint64(1), uint64(2), uint64(1)<<63, ^uint64(0), bytes.Repeat([]byte{0xa5}, LineSize))
	f.Fuzz(func(t *testing.T, k0, k1, addr, ctr uint64, data []byte) {
		m := newKeyed(t, k0, k1)
		var line [LineSize]byte
		copy(line[:], data)
		node := (*[56]byte)(line[:56])
		for _, c := range []struct {
			form string
			got  uint64
			data []byte
		}{
			{"SumLine", m.SumLine(addr, ctr, &line), line[:]},
			{"Sum56", m.Sum56(addr, ctr, node), node[:]},
		} {
			if sum := m.Sum(addr, ctr, c.data); c.got != sum {
				t.Fatalf("%s = %#x, Sum = %#x", c.form, c.got, sum)
			}
			if ref := m.polyHash(c.data) ^ m.key.Block(addr, ctr); c.got != ref {
				t.Fatalf("%s = %#x, polyHash ⊕ pad = %#x", c.form, c.got, ref)
			}
		}
	})
}

// newKeyed returns the Mac for the key k0 ‖ k1 (big-endian).
func newKeyed(t testing.TB, k0, k1 uint64) *Mac {
	t.Helper()
	var key [KeySize]byte
	binary.BigEndian.PutUint64(key[:8], k0)
	binary.BigEndian.PutUint64(key[8:], k1)
	m, err := New(key[:])
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// secondFoldLine returns a line whose only set bit is the top bit of a
// word k whose power pow[k+off] has degree ≥ 61 (off 0 for SumLine, 1
// for Sum56). That one product then has degree ≥ 124, so its high half
// has a bit at 60 or above and reduce's second fold t is non-zero.
func secondFoldLine(t testing.TB, m *Mac, off int) []byte {
	t.Helper()
	for k := 0; k+off < len(m.pow); k++ {
		if m.pow[k+off]>>61 != 0 {
			line := make([]byte, LineSize)
			line[8*k] = 0x80
			return line
		}
	}
	t.Fatalf("no power of degree ≥ 61 in %#x", m.pow[off:])
	return nil
}
