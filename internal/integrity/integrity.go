// Package integrity implements the Bonsai-style 8-ary counter tree used
// for replay-attack protection (paper §II-A4, Fig. 4, and Table II).
//
// The tree protects the encryption counters: each counter cacheline
// (eight 56-bit counters + one 64-bit MAC) is authenticated by a MAC
// keyed with a counter one level up, whose cacheline is authenticated in
// turn, until a root counter held on-chip. Only counters are in the tree
// (Bonsai property) — data MACs are not, which is what frees Synergy to
// move them into the ECC chip.
//
// Node layout matches the paper's §III-A chip interleaving: chip i of
// the 8 data chips stores counter i (7 bytes) plus byte i of the node
// MAC, so a single chip failure corrupts exactly one counter and one MAC
// byte — the error scenarios of Fig. 7. The ECC-chip slice carries the
// 8-byte intra-line parity (ParityC / ParityT): the XOR of the 8 data
// chip slices.
package integrity

import (
	"encoding/binary"
	"errors"
	"fmt"

	"synergy/internal/gmac"
)

// Arity is the tree fan-out: one node authenticates 8 children.
const Arity = 8

// CountersPerLine is the number of counters packed in one cacheline.
const CountersPerLine = 8

// NodeSize is the packed size of a node in bytes (one cacheline).
const NodeSize = 64

// CounterMask keeps counters to their architectural 56 bits.
const CounterMask = 1<<56 - 1

// Node is one counter cacheline: eight 56-bit counters plus a 64-bit MAC
// over the counters. It serves both as an encryption-counter line and as
// an integrity-tree line (the structures are identical, §III-A).
type Node struct {
	Counters [CountersPerLine]uint64
	MAC      uint64
}

// Pack serializes the node into a 64-byte cacheline with the chip
// interleaving described above: chip i holds counter i (big-endian,
// 7 bytes) followed by MAC byte i (big-endian byte order). The
// fixed-size array parameter makes a wrong-length buffer a compile
// error instead of a runtime panic: no misuse of the codec can reach
// a panic through the public facade.
func (n *Node) Pack(dst *[NodeSize]byte) {
	var macBytes [8]byte
	binary.BigEndian.PutUint64(macBytes[:], n.MAC)
	for i := 0; i < CountersPerLine; i++ {
		c := n.Counters[i] & CounterMask
		slice := dst[i*8 : i*8+8]
		slice[0] = byte(c >> 48)
		slice[1] = byte(c >> 40)
		slice[2] = byte(c >> 32)
		slice[3] = byte(c >> 24)
		slice[4] = byte(c >> 16)
		slice[5] = byte(c >> 8)
		slice[6] = byte(c)
		slice[7] = macBytes[i]
	}
}

// Unpack deserializes a 64-byte cacheline into the node.
func (n *Node) Unpack(src *[NodeSize]byte) {
	var macBytes [8]byte
	for i := 0; i < CountersPerLine; i++ {
		slice := src[i*8 : i*8+8]
		n.Counters[i] = uint64(slice[0])<<48 | uint64(slice[1])<<40 |
			uint64(slice[2])<<32 | uint64(slice[3])<<24 |
			uint64(slice[4])<<16 | uint64(slice[5])<<8 | uint64(slice[6])
		macBytes[i] = slice[7]
	}
	n.MAC = binary.BigEndian.Uint64(macBytes[:])
}

// counterBytes serializes only the counters (the MACed content — the MAC
// bytes themselves are excluded, so a corrupted MAC byte is detected as
// a stored-vs-computed mismatch rather than changing the computation).
// The buffer stays on the caller's stack, keeping node verification
// allocation-free on the per-access hot path.
func (n *Node) counterBytes(buf *[56]byte) {
	for i := 0; i < CountersPerLine; i++ {
		c := n.Counters[i] & CounterMask
		b := buf[i*7 : i*7+7]
		b[0] = byte(c >> 48)
		b[1] = byte(c >> 40)
		b[2] = byte(c >> 32)
		b[3] = byte(c >> 24)
		b[4] = byte(c >> 16)
		b[5] = byte(c >> 8)
		b[6] = byte(c)
	}
}

// ComputeMAC computes the node's 64-bit MAC over its counters, keyed by
// the node's line address and the parent counter that authenticates it.
func (n *Node) ComputeMAC(m *gmac.Mac, addr, parentCtr uint64) uint64 {
	var buf [56]byte
	n.counterBytes(&buf)
	return m.Sum56(addr, parentCtr, &buf)
}

// Seal recomputes and stores the node MAC.
func (n *Node) Seal(m *gmac.Mac, addr, parentCtr uint64) {
	n.MAC = n.ComputeMAC(m, addr, parentCtr)
}

// Verify reports whether the stored MAC matches the computed one.
func (n *Node) Verify(m *gmac.Mac, addr, parentCtr uint64) bool {
	return n.ComputeMAC(m, addr, parentCtr) == n.MAC
}

// Parity returns the intra-line 8-byte parity across the 8 data-chip
// slices of the packed node (ParityC for counter lines, ParityT for tree
// lines, §III-A).
func (n *Node) Parity() [8]byte {
	var buf [NodeSize]byte
	n.Pack(&buf)
	return SliceParity(&buf)
}

// SliceParity XORs the eight 8-byte chip slices of a 64-byte line. Like
// Pack/Unpack it takes a fixed-size array pointer, so a wrong-length
// line is unrepresentable. The slices are XORed as whole words: byte b
// of every slice lands in the same byte of the word, so the result is
// the byte-wise XOR.
func SliceParity(line *[NodeSize]byte) [8]byte {
	var x uint64
	for chip := 0; chip < 8; chip++ {
		x ^= binary.LittleEndian.Uint64(line[chip*8:])
	}
	var p [8]byte
	binary.LittleEndian.PutUint64(p[:], x)
	return p
}

// Geometry describes the shape of a counter tree protecting a given
// number of counter cachelines. Level 0 is the lowest tree level (just
// above the encryption-counter lines); the level above the last one is
// the on-chip root counter.
type Geometry struct {
	counterLines uint64
	levels       []uint64 // node count per tree level
}

// NewGeometry builds the geometry for the given number of
// encryption-counter cachelines.
func NewGeometry(counterLines uint64) (*Geometry, error) {
	if counterLines == 0 {
		return nil, errors.New("integrity: need at least one counter line")
	}
	g := &Geometry{counterLines: counterLines}
	n := counterLines
	for n > 1 {
		n = (n + Arity - 1) / Arity
		g.levels = append(g.levels, n)
	}
	if len(g.levels) == 0 {
		// A single counter line is authenticated directly by the root.
		g.levels = nil
	}
	return g, nil
}

// Levels returns the number of tree levels (excluding counter lines and
// the on-chip root).
func (g *Geometry) Levels() int { return len(g.levels) }

// NodesAt returns the node count of tree level l.
func (g *Geometry) NodesAt(l int) uint64 {
	if l < 0 || l >= len(g.levels) {
		panic(fmt.Sprintf("integrity: level %d out of range [0,%d)", l, len(g.levels)))
	}
	return g.levels[l]
}

// TotalNodes returns the total number of tree cachelines.
func (g *Geometry) TotalNodes() uint64 {
	var t uint64
	for _, n := range g.levels {
		t += n
	}
	return t
}

// CounterLines returns the number of leaf (encryption-counter) lines.
func (g *Geometry) CounterLines() uint64 { return g.counterLines }

// Parent maps a node at (level, index) to its parent's (level, index,
// slot). level -1 denotes the encryption-counter lines. When the parent
// is the on-chip root, ok is false and slot is the root slot (always 0).
func (g *Geometry) Parent(level int, index uint64) (plevel int, pindex uint64, slot int, ok bool) {
	if level < -1 || level >= len(g.levels) {
		panic(fmt.Sprintf("integrity: level %d out of range [-1,%d)", level, len(g.levels)))
	}
	plevel = level + 1
	pindex = index / Arity
	slot = int(index % Arity)
	if plevel >= len(g.levels) {
		return plevel, 0, slot, false
	}
	return plevel, pindex, slot, true
}

// StorageOverhead reports tree lines per counter line, the paper's ~1.8%
// integrity-tree overhead claim being TotalNodes/dataLines for 8-ary
// trees over 1/8-density counters.
func (g *Geometry) StorageOverhead() float64 {
	return float64(g.TotalNodes()) / float64(g.counterLines)
}
