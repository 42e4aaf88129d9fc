//go:build !amd64

package gmac

// haveCLMUL is false off amd64: SumLine and Sum56 evaluate the
// polynomial with polyHash, and the kernel below is never called.
const haveCLMUL = false

func clmulLine(pow *[8]uint64, line *[LineSize]byte) (lo, hi uint64) {
	panic("gmac: no carry-less multiply kernel on this platform")
}

func clmul56(pow *[8]uint64, buf *[56]byte) (lo, hi uint64) {
	panic("gmac: no carry-less multiply kernel on this platform")
}
