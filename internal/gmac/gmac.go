// Package gmac implements a 64-bit Carter–Wegman message authentication
// code of the kind assumed throughout the SYNERGY paper (a "64-bit
// AES-GCM based GMAC", §II-A3).
//
// The construction is the classic universal-hash-then-encrypt MAC:
//
//	MAC(key, addr, ctr, data) = Poly_H(data) XOR AES_K(addr || ctr)
//
// where Poly_H is a polynomial hash over GF(2^64) evaluated at a secret
// point H derived from the key, and the pad AES_K(addr||ctr) binds the
// tag to the cacheline address and the per-line write counter so that
// relocating or replaying ciphertext is detected. A forgery or a random
// corruption survives verification with probability about 2^-64 — the
// property the paper's error-detection reuse (§III) and mis-correction
// analysis (§IV-A) rely on.
//
// SumLine and Sum56, the two forms every memory access and tree node
// uses, do not run the polynomial as a Horner chain. A fixed-size tag is
// Σₖ wₖ·h^(n+1−k) ⊕ L·h over its n words wₖ and length block L, so New
// precomputes h²…h⁹ and both fixed L·h terms, and the words are
// multiplied by their powers independently and reduced once (the
// aggregated reduction GHASH implementations use). On amd64 with
// PCLMULQDQ an assembly kernel does those multiplies with the hardware
// carry-less multiply: no table lookups and no secret-dependent memory
// access, so those two forms are constant-time there.
//
// Every other multiply — Sum, Hasher, and SumLine/Sum56 on any other
// platform or CPU — runs in pure Go through a per-key byte-wide table
// (the standard GHASH acceleration), so each field multiply is 8 table
// lookups instead of a 64-iteration shift-and-add; see mulTable. The
// lookups are indexed by secret-dependent values and are therefore not
// constant-time.
//
// The pad AES_K(addr||ctr), and H, are one block of internal/aespad:
// on amd64 with AES-NI its kernel builds the block in registers from
// addr and ctr, so no nonce buffer exists; elsewhere crypto/aes.
package gmac

import (
	"encoding/binary"
	"errors"

	"synergy/internal/aespad"
)

// TagBits is the width of the authentication tag in bits.
const TagBits = 64

// TagSize is the width of the authentication tag in bytes. It equals the
// per-cacheline ECC-chip capacity of an x8 ECC-DIMM (8 bytes per 64-byte
// line), which is what lets Synergy co-locate the MAC with data.
const TagSize = 8

// KeySize is the size of the secret MAC key in bytes (an AES-128 key).
const KeySize = 16

// LineSize is the cacheline granularity of the SumLine fast path.
const LineSize = 64

// Mac computes 64-bit Carter–Wegman tags bound to an (address, counter)
// pair. It is safe for concurrent use by multiple goroutines after
// construction: all state is read-only.
type Mac struct {
	h   uint64      // secret GF(2^64) evaluation point
	tab *mulTable   // byte-wide multiply-by-h table
	key *aespad.Key // AES for H and the one-time pad

	// pow[i] = h^(9−i): SumLine's word k is multiplied by pow[k] and
	// Sum56's by pow[k+1]. lenLine and len56 are the two forms' length
	// terms L·h.
	pow            [8]uint64
	lenLine, len56 uint64
}

// New creates a Mac from a 16-byte secret key.
//
// The key is expanded with AES: the hash point H is AES_K(0^16) truncated
// to 64 bits (mirroring how GCM derives its GHASH key), and the same AES
// key whitens each tag with an address/counter-dependent pad. New
// also precomputes the 16 KB multiplication table for H that the
// pure-Go multiplies use in place of bit-serial field multiplication,
// and the 80 bytes of powers and length terms of the fixed-size forms;
// callers that share keys should share the Mac too, so the table is
// built and held in cache once.
func New(key []byte) (*Mac, error) {
	if len(key) != KeySize {
		return nil, errors.New("gmac: key must be 16 bytes")
	}
	k := aespad.New((*[KeySize]byte)(key))
	h := k.Block(0, 0)
	if h == 0 {
		// Point zero would hash every message to zero. Practically
		// unreachable (probability 2^-64) but trivially avoidable.
		h = 1
	}
	m := &Mac{h: h, tab: newMulTable(h), key: k}
	p := h
	for i := len(m.pow) - 1; i >= 0; i-- {
		p = m.tab.mul(p)
		m.pow[i] = p
	}
	m.lenLine = m.tab.mul(LineSize<<3 ^ lenMixin)
	m.len56 = m.tab.mul(56<<3 ^ lenMixin)
	return m, nil
}

// Sum returns the 64-bit tag for data stored at the given cacheline
// address with the given encryption counter. len(data) may be anything;
// it is processed in 8-byte words (zero-padded) with the total bit
// length folded into the polynomial so that messages of different
// lengths cannot collide trivially.
func (m *Mac) Sum(addr uint64, counter uint64, data []byte) uint64 {
	return m.polyHash(data) ^ m.key.Block(addr, counter)
}

// Verify reports whether tag authenticates data at (addr, counter).
func (m *Mac) Verify(addr uint64, counter uint64, data []byte, tag uint64) bool {
	return m.Sum(addr, counter, data) == tag
}

// SumLine is the fixed-size form for whole 64-byte cachelines, the one
// the engine's per-access verify and seal paths use. The tag equals
// Sum(addr, counter, line[:]); with the carry-less multiply kernel it
// is one aggregated evaluation of Σₖ wₖ·h^(9−k) ⊕ L·h.
func (m *Mac) SumLine(addr uint64, counter uint64, line *[LineSize]byte) uint64 {
	var poly uint64
	if haveCLMUL {
		poly = reduce(clmulLine(&m.pow, line)) ^ m.lenLine
	} else {
		poly = m.polyHash(line[:])
	}
	return poly ^ m.key.Block(addr, counter)
}

// Sum56 is the fixed-size form for 56-byte node payloads (the MACed
// content of counter/tree lines: eight 7-byte counters, or a split
// node's major + minors). The tag equals Sum(addr, counter, buf[:]);
// with the kernel it is Σₖ wₖ·h^(8−k) ⊕ L·h.
func (m *Mac) Sum56(addr uint64, counter uint64, buf *[56]byte) uint64 {
	var poly uint64
	if haveCLMUL {
		poly = reduce(clmul56(&m.pow, buf)) ^ m.len56
	} else {
		poly = m.polyHash(buf[:])
	}
	return poly ^ m.key.Block(addr, counter)
}

// reduce folds a 128-bit carry-less product hi·x^64 ⊕ lo modulo
// x^64 + x^4 + x^3 + x + 1. x^64 ≡ x^4 + x^3 + x + 1, so hi folds in as
// hi ⊕ hi<<1 ⊕ hi<<3 ⊕ hi<<4; the bits those shifts push past x^63 (t,
// at most four) fold in the same way once more.
func reduce(lo, hi uint64) uint64 {
	t := hi>>60 ^ hi>>61 ^ hi>>63
	return lo ^ hi ^ hi<<1 ^ hi<<3 ^ hi<<4 ^ t ^ t<<1 ^ t<<3 ^ t<<4
}

// polyHash evaluates the GF(2^64) polynomial whose coefficients are the
// 8-byte words of data (zero padded), followed by the total bit length,
// at point h: ((w0·h + w1)·h + ... + len)·h.
func (m *Mac) polyHash(data []byte) uint64 {
	total := uint64(len(data))
	var acc uint64
	for len(data) >= 8 {
		acc = m.tab.mul(acc ^ binary.BigEndian.Uint64(data[:8]))
		data = data[8:]
	}
	if len(data) > 0 {
		var last [8]byte
		copy(last[:], data)
		acc = m.tab.mul(acc ^ binary.BigEndian.Uint64(last[:]))
	}
	return m.tab.mul(acc ^ total<<3 ^ lenMixin)
}

// lenMixin separates the final length block from data blocks.
const lenMixin = 0xa5a5a5a5a5a5a5a5

// gfPoly is the reduction polynomial for GF(2^64):
// x^64 + x^4 + x^3 + x + 1 (a standard irreducible pentanomial).
const gfPoly = 0x1b

// mulTable accelerates multiplication by a fixed field element h with
// byte-wide windows: tab[i][b] = (b·x^(8i))·h, so a·h is the XOR of 8
// lookups, one per byte of a. 8×256 uint64 = 16 KB per key: half of a
// typical L1d, which is why an Array shares one Mac across its ranks.
// It serves Sum, Hasher, key setup, and SumLine/Sum56 wherever the
// carry-less multiply kernel is not available.
type mulTable [8][256]uint64

// newMulTable precomputes the table for h: the reference shift-and-add
// multiply gives each single-bit entry (64 multiplies, key setup only),
// and since multiplication by h is linear over XOR, every other entry
// is the XOR of its lowest set bit's entry and the rest's.
func newMulTable(h uint64) *mulTable {
	t := new(mulTable)
	for i := range t {
		for b := 1; b < 256; b++ {
			if low := b & -b; low == b {
				t[i][b] = gfMul(uint64(b)<<(8*i), h)
			} else {
				t[i][b] = t[i][low] ^ t[i][b^low]
			}
		}
	}
	return t
}

// mul returns a·h, fully unrolled: 8 loads and 7 XORs.
func (t *mulTable) mul(a uint64) uint64 {
	return t[0][uint8(a)] ^
		t[1][uint8(a>>8)] ^
		t[2][uint8(a>>16)] ^
		t[3][uint8(a>>24)] ^
		t[4][uint8(a>>32)] ^
		t[5][uint8(a>>40)] ^
		t[6][uint8(a>>48)] ^
		t[7][uint8(a>>56)]
}

// gfMul multiplies two elements of GF(2^64) (carry-less multiply reduced
// modulo gfPoly). Pure Go, constant 64-iteration shift-and-add. This is
// the reference implementation: the MAC multiplies through mulTable or
// the carry-less multiply kernel instead, and the differential tests
// pin both against this.
func gfMul(a, b uint64) uint64 {
	var p uint64
	for i := 0; i < 64; i++ {
		// Branch-free select of b when bit i of a is set.
		p ^= b & -(a & 1)
		a >>= 1
		// Multiply b by x, reducing on overflow of the top bit.
		hi := b >> 63
		b = (b << 1) ^ (gfPoly & -hi)
	}
	return p
}

// GFMul exposes the field multiplication for tests and for reuse by the
// integrity-tree package (which hashes node contents the same way).
func GFMul(a, b uint64) uint64 { return gfMul(a, b) }
