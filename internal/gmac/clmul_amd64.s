#include "textflag.h"

// PSHUFB mask that reverses the bytes of each 64-bit lane, so a 16-byte
// load of two big-endian words becomes the two words as integers.
DATA bswapMask<>+0x00(SB)/8, $0x0001020304050607
DATA bswapMask<>+0x08(SB)/8, $0x08090a0b0c0d0e0f
GLOBL bswapMask<>(SB), RODATA|NOPTR, $16

// MULPAIR multiplies the two words at off(SI) by the two powers at
// pow(DI), lane by lane, and XORs both 128-bit products into X0.
#define MULPAIR(off, pow) \
	MOVOU off(SI), X1 \
	PSHUFB X7, X1 \
	MOVOU pow(DI), X2 \
	MOVO X1, X3 \
	PCLMULQDQ $0x00, X2, X1 \
	PCLMULQDQ $0x11, X2, X3 \
	PXOR X1, X0 \
	PXOR X3, X0

// func clmulLine(pow *[8]uint64, line *[64]byte) (lo, hi uint64)
TEXT ·clmulLine(SB), NOSPLIT, $0-32
	MOVQ pow+0(FP), DI
	MOVQ line+8(FP), SI
	MOVOU bswapMask<>(SB), X7
	PXOR X0, X0
	MULPAIR(0, 0)
	MULPAIR(16, 16)
	MULPAIR(32, 32)
	MULPAIR(48, 48)
	MOVQ X0, lo+16(FP)
	PSHUFD $0x4e, X0, X0
	MOVQ X0, hi+24(FP)
	RET

// func clmul56(pow *[8]uint64, buf *[56]byte) (lo, hi uint64)
TEXT ·clmul56(SB), NOSPLIT, $0-32
	MOVQ pow+0(FP), DI
	MOVQ buf+8(FP), SI
	MOVOU bswapMask<>(SB), X7
	PXOR X0, X0
	MULPAIR(0, 8)
	MULPAIR(16, 24)
	MULPAIR(32, 40)
	// Word 6 is the high lane of the load at 40; its power pow[7] is
	// the high lane of the load at pow+48.
	MOVOU 40(SI), X1
	PSHUFB X7, X1
	MOVOU 48(DI), X2
	PCLMULQDQ $0x11, X2, X1
	PXOR X1, X0
	MOVQ X0, lo+16(FP)
	PSHUFD $0x4e, X0, X0
	MOVQ X0, hi+24(FP)
	RET
