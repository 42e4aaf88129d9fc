//go:build !amd64

package aespad

// haveAES is false off amd64: every pad goes through crypto/aes, and
// the kernel below is never called.
const haveAES = false

func expandKey(key *[16]byte, rk *[176]byte) {
	panic("aespad: no AES kernel on this platform")
}

func xorPad(rk *[176]byte, dst, src *[LineSize]byte, addr, ctr uint64) {
	panic("aespad: no AES kernel on this platform")
}

func encryptBlock(rk *[176]byte, addr, ctr uint64) uint64 {
	panic("aespad: no AES kernel on this platform")
}
