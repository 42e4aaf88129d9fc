// Package aespad computes the AES-128 pads the secure memory whitens
// with: the four-block one-time pad that counter-mode encryption XORs
// into a 64-byte line (internal/ctrenc), and the one-block pad a MAC
// tag is XORed with (internal/gmac). Both pads encrypt blocks of the
// form addr ‖ word, each half serialized big-endian.
//
// On amd64 with AES-NI an assembly kernel does the work. The key
// schedule is expanded once, with AESKEYGENASSIST. A pad call builds
// its AES inputs in registers, and the four blocks of a line pad run
// their ten rounds interleaved, one round-key load per four AESENCs,
// which is how the paper's hardware computes them (§II-A2, Fig. 2):
// four independent blocks in parallel. No buffer passes through an
// interface, so nothing a caller hands in escapes to the heap.
//
// Other platforms, and amd64 CPUs without AES-NI, use crypto/aes with
// byte-identical output. A buffer passed through the cipher.Block
// interface escapes, so there each call borrows a heap block from one
// pool, and no path allocates in the steady state.
package aespad

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"sync"
)

// LineSize is the size of a line pad in bytes: four AES blocks.
const LineSize = 4 * aes.BlockSize

// indexShift is where the block index sits in a line pad's counter
// word: block k of the pad for (addr, ctr) encrypts addr ‖ (k<<56 | ctr).
const indexShift = 56

// Key is an expanded AES-128 key. It is safe for concurrent use: all
// state is read-only after New.
type Key struct {
	rk    [11 * aes.BlockSize]byte // round keys, where the kernel runs
	block cipher.Block             // crypto/aes, where it does not
}

// New expands key.
func New(key *[16]byte) *Key {
	k := new(Key)
	if haveAES {
		expandKey(key, &k.rk)
		return k
	}
	b, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // unreachable: the key is 16 bytes by type
	}
	k.block = b
	return k
}

// XORPad writes src XOR the line pad for (addr, ctr) to dst, where the
// pad is AES_K(addr ‖ 0<<56|ctr) ‖ … ‖ AES_K(addr ‖ 3<<56|ctr). dst may
// be src. ctr must be below 2^56, where the block index sits.
func (k *Key) XORPad(dst, src *[LineSize]byte, addr, ctr uint64) {
	if haveAES {
		xorPad(&k.rk, dst, src, addr, ctr)
		return
	}
	k.xorPadGeneric(dst, src, addr, ctr)
}

// Block returns the first 8 bytes of AES_K(addr ‖ ctr), big-endian.
func (k *Key) Block(addr, ctr uint64) uint64 {
	if haveAES {
		return encryptBlock(&k.rk, addr, ctr)
	}
	return k.blockGeneric(addr, ctr)
}

// scratch holds the fallback's AES blocks. Only the fallback uses it:
// the kernel takes its inputs in registers.
var scratch = sync.Pool{New: func() any { return new([LineSize]byte) }}

func (k *Key) xorPadGeneric(dst, src *[LineSize]byte, addr, ctr uint64) {
	pad := scratch.Get().(*[LineSize]byte)
	for blk := 0; blk < LineSize/aes.BlockSize; blk++ {
		b := pad[blk*aes.BlockSize : (blk+1)*aes.BlockSize]
		binary.BigEndian.PutUint64(b[:8], addr)
		binary.BigEndian.PutUint64(b[8:], uint64(blk)<<indexShift|ctr)
		k.block.Encrypt(b, b)
	}
	subtle.XORBytes(dst[:], src[:], pad[:])
	scratch.Put(pad)
}

func (k *Key) blockGeneric(addr, ctr uint64) uint64 {
	pad := scratch.Get().(*[LineSize]byte)
	b := pad[:aes.BlockSize]
	binary.BigEndian.PutUint64(b[:8], addr)
	binary.BigEndian.PutUint64(b[8:], ctr)
	k.block.Encrypt(b, b)
	out := binary.BigEndian.Uint64(b[:8])
	scratch.Put(pad)
	return out
}
