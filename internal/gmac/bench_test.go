package gmac

import "testing"

// BenchmarkGFMul compares the shift-and-add reference multiply, the
// per-key byte-wide table multiply-by-H that Sum and Hasher use (8
// lookups per multiply), and the carry-less multiply kernel. ref and
// table time a chain of dependent multiplies; kernel times one
// SumLine polynomial (eight independent multiplies and one reduction)
// per op and reports its cost per multiply as ns/mul.
func BenchmarkGFMul(b *testing.B) {
	m := testKey(b)
	b.Run("ref", func(b *testing.B) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			acc = gfMul(acc^uint64(i), m.h)
		}
		sinkU64 = acc
	})
	b.Run("table", func(b *testing.B) {
		var acc uint64
		for i := 0; i < b.N; i++ {
			acc = m.tab.mul(acc ^ uint64(i))
		}
		sinkU64 = acc
	})
	b.Run("kernel", func(b *testing.B) {
		if !haveCLMUL {
			b.Skip("no carry-less multiply kernel on this platform")
		}
		var line [LineSize]byte
		for i := range line {
			line[i] = byte(i)
		}
		var acc uint64
		for i := 0; i < b.N; i++ {
			acc ^= reduce(clmulLine(&m.pow, &line))
		}
		sinkU64 = acc
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(8*b.N), "ns/mul")
	})
}

// sinkU64 keeps the compiler from eliding benchmark bodies.
var sinkU64 uint64

// BenchmarkSumLine times SumLine as dispatched on this CPU, and the
// portable evaluation (polyHash plus the pad) that every platform
// without the kernel runs.
func BenchmarkSumLine(b *testing.B) {
	m := testKey(b)
	var line [LineSize]byte
	b.Run("SumLine", func(b *testing.B) {
		b.SetBytes(LineSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkU64 = m.SumLine(uint64(i), 1, &line)
		}
	})
	b.Run("portable", func(b *testing.B) {
		b.SetBytes(LineSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkU64 = m.polyHash(line[:]) ^ m.key.Block(uint64(i), 1)
		}
	})
}

// BenchmarkSum56 is BenchmarkSumLine for the 56-byte node form.
func BenchmarkSum56(b *testing.B) {
	m := testKey(b)
	var buf [56]byte
	b.Run("Sum56", func(b *testing.B) {
		b.SetBytes(56)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkU64 = m.Sum56(uint64(i), 1, &buf)
		}
	})
	b.Run("portable", func(b *testing.B) {
		b.SetBytes(56)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkU64 = m.polyHash(buf[:]) ^ m.key.Block(uint64(i), 1)
		}
	})
}
