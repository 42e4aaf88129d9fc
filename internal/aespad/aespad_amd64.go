package aespad

// ecx1 is CPUID leaf 1's ECX, where the feature bits of both this
// package's kernel and internal/gmac's live. It is read once, here.
var ecx1 = cpuidECX1()

func cpuidECX1() uint32

// haveAES reports whether the CPU has AES-NI (ECX bit 25), the one
// extension the kernel uses beyond amd64's baseline SSE2.
var haveAES = ecx1&(1<<25) != 0

// HaveCLMUL reports whether the CPU has PCLMULQDQ (ECX bit 1) and SSSE3
// (bit 9, for PSHUFB), the two extensions internal/gmac's fixed-size
// tag kernel uses.
func HaveCLMUL() bool {
	const want = 1<<1 | 1<<9
	return ecx1&want == want
}

// expandKey writes the eleven AES-128 round keys of key to rk.
//
//go:noescape
func expandKey(key *[16]byte, rk *[176]byte)

// xorPad writes src XOR the four-block line pad for (addr, ctr) to dst.
// It loads all of src before it stores to dst.
//
//go:noescape
func xorPad(rk *[176]byte, dst, src *[LineSize]byte, addr, ctr uint64)

// encryptBlock returns the first 8 bytes of AES(addr ‖ ctr),
// big-endian.
//
//go:noescape
func encryptBlock(rk *[176]byte, addr, ctr uint64) uint64
