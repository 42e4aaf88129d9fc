package ctrenc

import "testing"

// BenchmarkPadGen measures OTP generation: one line at a time versus a
// batch of 32 through PadBatch.
func BenchmarkPadGen(b *testing.B) {
	e := testEngine(b)
	b.Run("single", func(b *testing.B) {
		pad := make([]byte, LineSize)
		b.SetBytes(LineSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := e.Pad(pad, uint64(i)<<6, uint64(i)&CounterMax); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch32", func(b *testing.B) {
		const n = 32
		pads := make([]byte, n*LineSize)
		addrs := make([]uint64, n)
		ctrs := make([]uint64, n)
		b.SetBytes(n * LineSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := range addrs {
				addrs[k] = uint64(i*n+k) << 6
				ctrs[k] = uint64(k)
			}
			if err := e.PadBatch(pads, addrs, ctrs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
