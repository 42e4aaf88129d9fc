// Package ctrenc implements counter-mode memory encryption as used by
// SGX-class secure memories and by the SYNERGY paper (§II-A2, Fig. 2).
//
// Each 64-byte cacheline is encrypted by XOR with a One Time Pad (OTP)
// generated from AES of (line address, per-line write counter):
//
//	OTP   = AES_K(addr || 0<<56|ctr) || ... || AES_K(addr || 3<<56|ctr)
//	cipher = plain XOR OTP
//
// with addr and the counter word each serialized big-endian in 8 bytes.
//
// Incrementing the counter on every write gives temporal uniqueness of
// the pad; binding the address gives spatial uniqueness. Decryption is
// the same XOR. Because the pad depends only on (addr, ctr), it can be
// precomputed while the data access is in flight — the property that
// makes counter caching performance-critical in the paper's evaluation.
// PadBatch is that batched form, kept as the leaf cost the benchmark
// measures; the engine itself generates each pad inline, one line at a
// time, since a batched pad costs what a single one does.
package ctrenc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"unsafe"
)

// LineSize is the cacheline granularity of memory encryption in bytes.
const LineSize = 64

// KeySize is the encryption key size in bytes (AES-128).
const KeySize = 16

// CounterBits is the width of the per-line encryption counter, matching
// SGX's 56-bit monolithic counters (paper Table II).
const CounterBits = 56

// CounterMax is the largest representable per-line counter value. A
// counter overflow in a real system forces re-encryption of the region
// under a fresh key; Engine reports it as an error.
const CounterMax = 1<<CounterBits - 1

// ErrCounterOverflow is returned when a per-line counter would exceed
// CounterBits bits.
var ErrCounterOverflow = errors.New("ctrenc: encryption counter overflow (region must be re-keyed)")

// ErrBadLength is returned (wrapped, with the offending size) when a
// caller-supplied buffer is not exactly LineSize bytes per line.
var ErrBadLength = errors.New("ctrenc: buffer must be exactly LineSize bytes per line")

// ErrOverlap is returned (wrapped) by Encrypt and Decrypt when dst and
// src overlap without being the same slice.
var ErrOverlap = errors.New("ctrenc: dst must be src or disjoint from it")

// Engine encrypts and decrypts cachelines in counter mode. It is safe
// for concurrent use: all state is read-only after construction.
type Engine struct {
	block cipher.Block
}

// New creates an Engine from a 16-byte secret key.
func New(key []byte) (*Engine, error) {
	if len(key) != KeySize {
		return nil, errors.New("ctrenc: key must be 16 bytes")
	}
	b, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return &Engine{block: b}, nil
}

// scratchPool holds line-sized pads for the one case that cannot stage
// its AES inputs in dst: an Encrypt/Decrypt whose dst is src, where
// staging would overwrite the plaintext before it is XORed.
// The pad is pooled rather than stack-allocated because buffers passed
// through the cipher.Block interface escape.
var scratchPool = sync.Pool{New: func() any { return new([LineSize]byte) }}

// Pad writes the 64-byte one-time pad for (addr, counter) into dst.
// dst must be LineSize bytes and counter at most CounterMax; violations
// return ErrBadLength / ErrCounterOverflow (the Encrypt/Decrypt error
// contract).
func (e *Engine) Pad(dst []byte, addr, counter uint64) error {
	if len(dst) != LineSize {
		return fmt.Errorf("ctrenc: pad buffer must be %d bytes, got %d: %w", LineSize, len(dst), ErrBadLength)
	}
	if counter > CounterMax {
		return ErrCounterOverflow
	}
	e.padInto((*[LineSize]byte)(dst), addr, counter)
	return nil
}

// PadBatch fills dst with the concatenated one-time pads for every
// (addrs[k], ctrs[k]) pair: dst[k*LineSize:(k+1)*LineSize] receives pad
// k, generated in place — the form a controller would use to produce
// all pads for a read burst in one pass before the data arrives. The
// engine does not call it; it is kept as the batched leaf the benchmark
// measures against Pad.
func (e *Engine) PadBatch(dst []byte, addrs, ctrs []uint64) error {
	if len(addrs) != len(ctrs) {
		return fmt.Errorf("ctrenc: PadBatch needs matching addr/counter slices, got %d/%d", len(addrs), len(ctrs))
	}
	if len(dst) != len(addrs)*LineSize {
		return fmt.Errorf("ctrenc: PadBatch needs %d×%d bytes, got %d: %w", len(addrs), LineSize, len(dst), ErrBadLength)
	}
	for _, c := range ctrs {
		if c > CounterMax {
			return ErrCounterOverflow
		}
	}
	for k := range addrs {
		e.padInto((*[LineSize]byte)(dst[k*LineSize:]), addrs[k], ctrs[k])
	}
	return nil
}

// padInto fills dst with the pad for (addr, counter). All four AES
// inputs addr ‖ (blk<<56 | counter) are written before the first block
// is encrypted, each in its own 16-byte slot of dst, and each block is
// then encrypted in place (counters are 56-bit, so the block index
// rides in the top byte). Staging them first matters: AES loads its
// input as one 16-byte word, which the CPU cannot forward from the two
// 8-byte stores that wrote it, so a load issued right behind its stores
// waits for them to reach the cache. With every store issued up front,
// they have drained by the time each block needs them, and the four
// blocks no longer wait on each other.
func (e *Engine) padInto(dst *[LineSize]byte, addr, counter uint64) {
	for blk := 0; blk < LineSize/aes.BlockSize; blk++ {
		in := dst[blk*aes.BlockSize:]
		binary.BigEndian.PutUint64(in[:8], addr)
		binary.BigEndian.PutUint64(in[8:16], uint64(blk)<<CounterBits|counter)
	}
	for blk := 0; blk < LineSize/aes.BlockSize; blk++ {
		b := dst[blk*aes.BlockSize : (blk+1)*aes.BlockSize]
		e.block.Encrypt(b, b)
	}
}

// Encrypt XORs a 64-byte plaintext line with the pad for (addr, counter),
// writing the ciphertext to dst. dst must be src or disjoint from it;
// any other overlap returns ErrOverlap.
func (e *Engine) Encrypt(dst, src []byte, addr, counter uint64) error {
	if counter > CounterMax {
		return ErrCounterOverflow
	}
	return e.xorPad(dst, src, addr, counter)
}

// Decrypt XORs a 64-byte ciphertext line with the pad for (addr, counter),
// writing the plaintext to dst. dst must be src or disjoint from it;
// any other overlap returns ErrOverlap. Counter-mode decryption is
// identical to encryption.
func (e *Engine) Decrypt(dst, src []byte, addr, counter uint64) error {
	if counter > CounterMax {
		return ErrCounterOverflow
	}
	return e.xorPad(dst, src, addr, counter)
}

// xorPad generates the pad in dst and XORs src into it; only a dst that
// aliases src needs the pooled pad instead.
func (e *Engine) xorPad(dst, src []byte, addr, counter uint64) error {
	if len(dst) != LineSize || len(src) != LineSize {
		return fmt.Errorf("ctrenc: lines must be %d bytes, got %d/%d: %w", LineSize, len(dst), len(src), ErrBadLength)
	}
	d, s := uintptr(unsafe.Pointer(&dst[0])), uintptr(unsafe.Pointer(&src[0]))
	if d != s {
		if d < s+LineSize && s < d+LineSize {
			return fmt.Errorf("ctrenc: dst and src overlap at offset %d: %w", int64(d-s), ErrOverlap)
		}
		e.padInto((*[LineSize]byte)(dst), addr, counter)
		subtle.XORBytes(dst, dst, src)
		return nil
	}
	pad := scratchPool.Get().(*[LineSize]byte)
	e.padInto(pad, addr, counter)
	subtle.XORBytes(dst, src, pad[:])
	scratchPool.Put(pad)
	return nil
}

// NextCounter returns counter+1, or ErrCounterOverflow when the 56-bit
// space is exhausted.
func NextCounter(counter uint64) (uint64, error) {
	if counter >= CounterMax {
		return 0, ErrCounterOverflow
	}
	return counter + 1, nil
}
