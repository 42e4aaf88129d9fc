package aespad

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// FuzzAESKernel pins every entry point, whichever way this platform
// computes it, to crypto/aes: the key schedule (where the kernel runs),
// the line pad out of place and in place, and the one-block form, over
// fuzzed keys, addresses, counters and lines. The seeds cover the
// all-zero and all-ones keys, the FIPS-197 key, and the counter and
// address extremes.
func FuzzAESKernel(f *testing.F) {
	fips := fips197Key(f)
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), make([]byte, LineSize))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), bytes.Repeat([]byte{0xff}, LineSize))
	f.Add(binary.BigEndian.Uint64(fips[:8]), binary.BigEndian.Uint64(fips[8:]), uint64(0x1000), uint64(7), bytes.Repeat([]byte{0xa5}, LineSize))
	f.Add(uint64(0x1717171717171717), uint64(0x1717171717171717), uint64(1)<<63, uint64(1)<<indexShift-1, []byte("sixty-four bytes of cacheline data"))
	f.Fuzz(func(t *testing.T, k0, k1, addr, ctr uint64, data []byte) {
		var key [16]byte
		binary.BigEndian.PutUint64(key[:8], k0)
		binary.BigEndian.PutUint64(key[8:], k1)
		k := New(&key)
		ref, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		if haveAES {
			if want := expandRef(&key); k.rk != want {
				t.Fatalf("key schedule\n got %x\nwant %x", k.rk, want)
			}
		}

		var src [LineSize]byte
		copy(src[:], data)
		padCtr := ctr & (1<<indexShift - 1)
		var want [LineSize]byte
		for blk := 0; blk < LineSize/aes.BlockSize; blk++ {
			b := want[blk*aes.BlockSize : (blk+1)*aes.BlockSize]
			binary.BigEndian.PutUint64(b[:8], addr)
			binary.BigEndian.PutUint64(b[8:], uint64(blk)<<indexShift|padCtr)
			ref.Encrypt(b, b)
			for i := range b {
				b[i] ^= src[blk*aes.BlockSize+i]
			}
		}
		var dst [LineSize]byte
		k.XORPad(&dst, &src, addr, padCtr)
		if dst != want {
			t.Fatalf("XORPad(%#x, %#x) out of place\n got %x\nwant %x", addr, padCtr, dst, want)
		}
		in := src
		k.XORPad(&in, &in, addr, padCtr)
		if in != want {
			t.Fatalf("XORPad(%#x, %#x) in place\n got %x\nwant %x", addr, padCtr, in, want)
		}

		var blk [aes.BlockSize]byte
		binary.BigEndian.PutUint64(blk[:8], addr)
		binary.BigEndian.PutUint64(blk[8:], ctr)
		ref.Encrypt(blk[:], blk[:])
		if got, want := k.Block(addr, ctr), binary.BigEndian.Uint64(blk[:8]); got != want {
			t.Fatalf("Block(%#x, %#x) = %#x, want %#x", addr, ctr, got, want)
		}
	})
}

// The reference expansion reproduces FIPS-197 Appendix A.1: the first
// and last round keys of the example key.
func TestExpandRefKnownAnswer(t *testing.T) {
	key := fips197Key(t)
	rk := expandRef(&key)
	for _, c := range []struct {
		round int
		want  string
	}{{0, "2b7e151628aed2a6abf7158809cf4f3c"}, {1, "a0fafe1788542cb123a339392a6c7605"}, {10, "d014f9a8c9ee2589e13f0cc8b6630ca6"}} {
		if got := hex.EncodeToString(rk[16*c.round : 16*c.round+16]); got != c.want {
			t.Errorf("round key %d = %s, want %s", c.round, got, c.want)
		}
	}
}

func fips197Key(t testing.TB) [16]byte {
	t.Helper()
	var key [16]byte
	if _, err := hex.Decode(key[:], []byte("2b7e151628aed2a6abf7158809cf4f3c")); err != nil {
		t.Fatal(err)
	}
	return key
}

// expandRef is the AES-128 key expansion of FIPS-197 §5.2, written from
// the definition: wᵢ = wᵢ₋₄ ⊕ SubWord(RotWord(wᵢ₋₁)) ⊕ Rcon at every
// fourth word, wᵢ = wᵢ₋₄ ⊕ wᵢ₋₁ otherwise.
func expandRef(key *[16]byte) [176]byte {
	var rk [176]byte
	copy(rk[:], key[:])
	rcon := byte(1)
	for i := 16; i < len(rk); i += 4 {
		var w [4]byte
		copy(w[:], rk[i-4:i])
		if i%16 == 0 {
			w = [4]byte{sbox[w[1]] ^ rcon, sbox[w[2]], sbox[w[3]], sbox[w[0]]}
			rcon = xtime(rcon)
		}
		for j := range w {
			rk[i+j] = rk[i-16+j] ^ w[j]
		}
	}
	return rk
}

// xtime multiplies by x in GF(2^8) modulo x^8 + x^4 + x^3 + x + 1.
func xtime(b byte) byte { return b<<1 ^ 0x1b&-(b>>7) }

// sbox is the AES S-box from its definition: the multiplicative
// inverse in GF(2^8) (0 for 0), then the affine map
// b ⊕ rotl(b,1..4) ⊕ 0x63.
var sbox = func() (t [256]byte) {
	for b := range t {
		inv := byte(0)
		for c := 1; c < 256; c++ {
			if gfMul8(byte(b), byte(c)) == 1 {
				inv = byte(c)
			}
		}
		s := inv
		for r := 1; r <= 4; r++ {
			s ^= inv<<r | inv>>(8-r)
		}
		t[b] = s ^ 0x63
	}
	return t
}()

func gfMul8(a, b byte) byte {
	var p byte
	for ; b != 0; b >>= 1 {
		p ^= a & -(b & 1)
		a = xtime(a)
	}
	return p
}
