package core

import (
	"errors"
	"testing"
)

// Degraded-mode read benchmarks: what a read costs while the engine is
// correcting, condemned, or poisoned — the fault-tolerance counterpart
// of BenchmarkReadHotPath. bench/'s engine_degraded workload is the
// gated measurement of the condemned-chip read (read_ns).
func BenchmarkDegradedRead(b *testing.B) {
	buf := make([]byte, LineSize)
	line := fillLine(0x33)

	// Baseline: the same loop shape with no fault, for comparison.
	b.Run("clean", func(b *testing.B) {
		a, _ := newMemory(b, 1024)
		if err := a.Write(42, line); err != nil {
			b.Fatal(err)
		}
		a.Read(42, buf)
		b.SetBytes(LineSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Read(42, buf); err != nil {
				b.Fatal(err)
			}
		}
	})

	// One transient per read: full §III-B reconstruction (MAC-verified
	// trial rebuilds) plus the corrected write-back, re-armed every
	// iteration (the re-injection is one 8-byte XOR — noise next to the
	// MAC walks). FaultThreshold is parked high so the scoreboard never
	// condemns the rotating chip.
	b.Run("transient-reconstruct", func(b *testing.B) {
		a, err := NewArray(Config{DataLines: 1024, FaultThreshold: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		m := a.ranks[0]
		if err := a.Write(42, line); err != nil {
			b.Fatal(err)
		}
		addr := m.Layout().DataAddr(42)
		a.Read(42, buf)
		b.SetBytes(LineSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.InjectTransient(addr, i%8, [8]byte{0x80}); err != nil {
				b.Fatal(err)
			}
			if _, err := a.Read(42, buf); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Whole-chip permanent fault with the chip already condemned: the
	// §IV-A preemptive path, i.e. steady-state degraded service between
	// fault onset and chip replacement — served under the shared lock,
	// one MAC per read and no store-back. It cycles over the 8 lines of
	// one parity line, so, as in bench/'s engine_degraded, one read in 8
	// finds its parity slot on the condemned chip and rebuilds it
	// through ParityP first.
	b.Run("permanent-preemptive", func(b *testing.B) {
		const first, dead = 40, 2
		a, m := newMemory(b, 1024)
		for j := uint64(first); j < first+8; j++ {
			if err := a.Write(j, line); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := m.InjectPermanent(dead, 0, m.Module().Lines()-1, [8]byte{0x55}); err != nil {
			b.Fatal(err)
		}
		for j := 0; m.KnownBadChip() != dead; j++ { // warm until the scoreboard condemns
			if _, err := a.Read(first+uint64(j%8), buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(LineSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Read(first+uint64(i%8), buf); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Re-read of an attacked line: the ErrPoisoned fast-fail, which is
	// the whole point of poison — no re-running reconstruction per read.
	b.Run("poisoned-fastfail", func(b *testing.B) {
		a, m := newMemory(b, 1024)
		if err := a.Write(42, line); err != nil {
			b.Fatal(err)
		}
		addr := m.Layout().DataAddr(42)
		m.InjectTransient(addr, 1, [8]byte{1})
		m.InjectTransient(addr, 6, [8]byte{2})
		if _, err := a.Read(42, buf); !errors.Is(err, ErrAttack) {
			b.Fatalf("setup read: %v, want ErrAttack", err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := a.Read(42, buf); !errors.Is(err, ErrPoisoned) {
				b.Fatal(err)
			}
		}
	})
}
