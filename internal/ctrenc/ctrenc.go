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
// The four blocks are independent, and internal/aespad computes them
// the way the paper's hardware does, in parallel: on amd64 with AES-NI
// one kernel call builds the four inputs in registers, runs their
// rounds interleaved and XORs the source line, so no buffer escapes;
// elsewhere crypto/aes computes the same bytes.
// PadBatch is the batched form, kept as the leaf cost the benchmark
// measures; the engine itself generates each pad inline, one line at a
// time, since a batched pad costs what a single one does.
package ctrenc

import (
	"errors"
	"fmt"
	"unsafe"

	"synergy/internal/aespad"
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
	key *aespad.Key
}

// New creates an Engine from a 16-byte secret key.
func New(key []byte) (*Engine, error) {
	if len(key) != KeySize {
		return nil, errors.New("ctrenc: key must be 16 bytes")
	}
	return &Engine{key: aespad.New((*[KeySize]byte)(key))}, nil
}

// zeroLine is the source a bare pad is XORed with.
var zeroLine [LineSize]byte

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
	e.key.XORPad((*[LineSize]byte)(dst), &zeroLine, addr, counter)
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
		e.key.XORPad((*[LineSize]byte)(dst[k*LineSize:]), &zeroLine, addrs[k], ctrs[k])
	}
	return nil
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

// xorPad checks the line lengths and the overlap rule, then writes src
// XOR the pad to dst in one kernel call, which reads all of src before
// it writes dst.
func (e *Engine) xorPad(dst, src []byte, addr, counter uint64) error {
	if len(dst) != LineSize || len(src) != LineSize {
		return fmt.Errorf("ctrenc: lines must be %d bytes, got %d/%d: %w", LineSize, len(dst), len(src), ErrBadLength)
	}
	if d, s := uintptr(unsafe.Pointer(&dst[0])), uintptr(unsafe.Pointer(&src[0])); d != s && d < s+LineSize && s < d+LineSize {
		return fmt.Errorf("ctrenc: dst and src overlap at offset %d: %w", int64(d-s), ErrOverlap)
	}
	e.key.XORPad((*[LineSize]byte)(dst), (*[LineSize]byte)(src), addr, counter)
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
