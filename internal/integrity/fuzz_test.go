package integrity

import (
	"bytes"
	"math/rand"
	"testing"

	"synergy/internal/gmac"
)

// FuzzNodeCodec: Unpack/Pack over arbitrary 64-byte lines must be a
// bijection for both node layouts (modulo the architectural 56-bit
// counter mask for monolithic nodes, which the packed form enforces by
// construction).
func FuzzNodeCodec(f *testing.F) {
	f.Add(bytes.Repeat([]byte{0xA5}, NodeSize))
	f.Add(make([]byte, NodeSize))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) != NodeSize {
			return
		}
		line := (*[NodeSize]byte)(raw)
		var n Node
		n.Unpack(line)
		var out [NodeSize]byte
		n.Pack(&out)
		if !bytes.Equal(raw, out[:]) {
			t.Fatalf("monolithic codec not bijective")
		}
		var s SplitNode
		s.Unpack(line)
		var out2 [NodeSize]byte
		s.Pack(&out2)
		if !bytes.Equal(raw, out2[:]) {
			t.Fatalf("split codec not bijective")
		}
	})
}

// FuzzSliceParity: the word-wise SliceParity must equal the byte-wise
// XOR of the eight chip slices on every line.
func FuzzSliceParity(f *testing.F) {
	f.Add(make([]byte, NodeSize))
	f.Add(bytes.Repeat([]byte{0xFF}, NodeSize))
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 8; k++ {
		line := make([]byte, NodeSize)
		rng.Read(line)
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) != NodeSize {
			return
		}
		var want [8]byte
		for chip := 0; chip < 8; chip++ {
			for b := 0; b < 8; b++ {
				want[b] ^= raw[chip*8+b]
			}
		}
		if got := SliceParity((*[NodeSize]byte)(raw)); got != want {
			t.Fatalf("SliceParity = %x, byte-wise XOR = %x", got, want)
		}
	})
}

// FuzzMACBinding: any single-byte corruption of a sealed node's packed
// form must fail verification.
func FuzzMACBinding(f *testing.F) {
	key := bytes.Repeat([]byte{7}, gmac.KeySize)
	m, err := gmac.New(key)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint64(0x40), uint64(3), uint8(5), uint8(0x01))
	f.Fuzz(func(t *testing.T, addr, parent uint64, pos, mask uint8) {
		if mask == 0 {
			return
		}
		var n Node
		for i := range n.Counters {
			n.Counters[i] = addr*uint64(i+1) + parent
		}
		n.Seal(m, addr, parent)
		var buf [NodeSize]byte
		n.Pack(&buf)
		buf[int(pos)%NodeSize] ^= mask
		var c Node
		c.Unpack(&buf)
		if c.Verify(m, addr, parent) {
			t.Fatalf("corruption at byte %d mask %#x passed verification", pos%NodeSize, mask)
		}
	})
}
