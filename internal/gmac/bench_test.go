package gmac

import "testing"

// BenchmarkGFMul compares the shift-and-add reference multiply against
// the per-key byte-wide table multiply-by-H the hot path uses (8
// lookups per multiply).
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
}

// sinkU64 keeps the compiler from eliding benchmark bodies.
var sinkU64 uint64

func BenchmarkSumLine(b *testing.B) {
	m := testKey(b)
	var line [LineSize]byte
	b.SetBytes(LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU64 = m.SumLine(uint64(i), 1, &line)
	}
}

func BenchmarkSum56(b *testing.B) {
	m := testKey(b)
	var buf [56]byte
	b.SetBytes(56)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU64 = m.Sum56(uint64(i), 1, &buf)
	}
}
