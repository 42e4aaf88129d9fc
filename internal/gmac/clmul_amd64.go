package gmac

import "synergy/internal/aespad"

// haveCLMUL reports whether the CPU has PCLMULQDQ and SSSE3 (for
// PSHUFB), the two extensions the fixed-size tag kernel uses. The
// CPUID read that picks the AES kernel answers it.
var haveCLMUL = aespad.HaveCLMUL()

// clmulLine returns the unreduced Σₖ wₖ·pow[k] over the eight
// big-endian words of line, as the 128-bit value hi·x^64 ⊕ lo.
//
//go:noescape
func clmulLine(pow *[8]uint64, line *[LineSize]byte) (lo, hi uint64)

// clmul56 returns the unreduced Σₖ wₖ·pow[k+1] over the seven
// big-endian words of buf.
//
//go:noescape
func clmul56(pow *[8]uint64, buf *[56]byte) (lo, hi uint64)
