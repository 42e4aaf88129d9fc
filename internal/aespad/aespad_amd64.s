#include "textflag.h"

// func cpuidECX1() uint32
TEXT ·cpuidECX1(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// EXPAND derives round key i from round key i−1 in X0, using the round
// constant rcon, and stores it at 16·i(BX). X4 must start at zero: the
// two SHUFPS/PXOR pairs fold the previous key's words in as w0,
// w0⊕w1, w0⊕w1⊕w2, w0⊕w1⊕w2⊕w3 (the toolchain's expandKeyAsm).
#define EXPAND(rcon, off) \
	AESKEYGENASSIST $rcon, X0, X1 \
	PSHUFD $0xff, X1, X1 \
	SHUFPS $0x10, X0, X4 \
	PXOR X4, X0 \
	SHUFPS $0x8c, X0, X4 \
	PXOR X4, X0 \
	PXOR X1, X0 \
	MOVUPS X0, off(BX)

// func expandKey(key *[16]byte, rk *[176]byte)
TEXT ·expandKey(SB), NOSPLIT, $0-16
	MOVQ key+0(FP), AX
	MOVQ rk+8(FP), BX
	MOVUPS (AX), X0
	MOVUPS X0, (BX)
	PXOR X4, X4
	EXPAND(0x01, 16)
	EXPAND(0x02, 32)
	EXPAND(0x04, 48)
	EXPAND(0x08, 64)
	EXPAND(0x10, 80)
	EXPAND(0x20, 96)
	EXPAND(0x40, 112)
	EXPAND(0x80, 128)
	EXPAND(0x1b, 144)
	EXPAND(0x36, 160)
	RET

// INPUT builds the AES input addr ‖ word in X from the byte-swapped
// halves in SI and R8: the register's low lane is the block's first 8
// bytes in memory order.
#define INPUT(X) \
	MOVQ SI, X \
	MOVQ R8, X7 \
	PUNPCKLQDQ X7, X

// ROUND4 runs AES round off (one round-key load) on all four blocks.
#define ROUND4(off) \
	MOVUPS off(AX), X4 \
	AESENC X4, X0 \
	AESENC X4, X1 \
	AESENC X4, X2 \
	AESENC X4, X3

// func xorPad(rk *[176]byte, dst *[64]byte, src *[64]byte, addr uint64, ctr uint64)
TEXT ·xorPad(SB), NOSPLIT, $0-40
	MOVQ rk+0(FP), AX
	MOVQ addr+24(FP), SI
	MOVQ ctr+32(FP), DI
	BSWAPQ SI
	BSWAPQ DI
	// Block k's counter word is k<<56 | ctr, which byte-swapped is
	// bswap(ctr) | k. ctr is below 2^56, so the low byte of bswap(ctr)
	// is zero and the OR is an add.
	MOVQ DI, R8
	INPUT(X0)
	LEAQ 1(DI), R8
	INPUT(X1)
	LEAQ 2(DI), R8
	INPUT(X2)
	LEAQ 3(DI), R8
	INPUT(X3)
	MOVUPS (AX), X4
	PXOR X4, X0
	PXOR X4, X1
	PXOR X4, X2
	PXOR X4, X3
	ROUND4(16)
	ROUND4(32)
	ROUND4(48)
	ROUND4(64)
	ROUND4(80)
	ROUND4(96)
	ROUND4(112)
	ROUND4(128)
	ROUND4(144)
	MOVUPS 160(AX), X4
	AESENCLAST X4, X0
	AESENCLAST X4, X1
	AESENCLAST X4, X2
	AESENCLAST X4, X3
	// Every load of src precedes the first store, so dst may be src.
	MOVQ src+16(FP), BX
	MOVUPS 0(BX), X4
	MOVUPS 16(BX), X5
	MOVUPS 32(BX), X6
	MOVUPS 48(BX), X7
	PXOR X4, X0
	PXOR X5, X1
	PXOR X6, X2
	PXOR X7, X3
	MOVQ dst+8(FP), DX
	MOVUPS X0, 0(DX)
	MOVUPS X1, 16(DX)
	MOVUPS X2, 32(DX)
	MOVUPS X3, 48(DX)
	RET

// ROUND1 runs AES round off on the block in X0.
#define ROUND1(off) \
	MOVUPS off(AX), X4 \
	AESENC X4, X0

// func encryptBlock(rk *[176]byte, addr uint64, ctr uint64) uint64
TEXT ·encryptBlock(SB), NOSPLIT, $0-32
	MOVQ rk+0(FP), AX
	MOVQ addr+8(FP), SI
	MOVQ ctr+16(FP), R8
	BSWAPQ SI
	BSWAPQ R8
	INPUT(X0)
	MOVUPS (AX), X4
	PXOR X4, X0
	ROUND1(16)
	ROUND1(32)
	ROUND1(48)
	ROUND1(64)
	ROUND1(80)
	ROUND1(96)
	ROUND1(112)
	ROUND1(128)
	ROUND1(144)
	MOVUPS 160(AX), X4
	AESENCLAST X4, X0
	MOVQ X0, AX
	BSWAPQ AX
	MOVQ AX, ret+24(FP)
	RET
