package core

// Tests and benchmarks for the crypto hot path: the optimistic
// pad-precomputing ReadBatch and the zero-allocation steady-state read.

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"synergy/internal/dimm"
	"synergy/internal/telemetry"
)

// ReadBatch (peek counters → precompute pads → verify under lock) must
// return exactly what per-line Reads return, across plain and
// split-counter organizations and across counter bumps that make early
// peeks stale for later reads of the same batch.
func TestReadBatchMatchesRead(t *testing.T) {
	for _, split := range []bool{false, true} {
		m, err := New(Config{DataLines: 96, SplitCounters: split})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		want := make(map[uint64][]byte)
		for i := uint64(0); i < 96; i += 3 {
			line := make([]byte, LineSize)
			rng.Read(line)
			for r := 0; r < int(i%4); r++ { // vary counters across lines
				if err := m.Write(i, line); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Write(i, line); err != nil {
				t.Fatal(err)
			}
			want[i] = line
		}
		lines := []uint64{0, 3, 6, 33, 93, 3, 0} // duplicates included
		dst := make([]byte, len(lines)*LineSize)
		if _, err := m.ReadBatch(lines, dst); err != nil {
			t.Fatalf("split=%v: ReadBatch: %v", split, err)
		}
		for k, i := range lines {
			if !bytes.Equal(dst[k*LineSize:(k+1)*LineSize], want[i]) {
				t.Fatalf("split=%v: batch entry %d (line %d) wrong", split, k, i)
			}
		}
	}
}

// A corrupted counter line makes the peeked counter (raw cells, no
// correction) disagree with the trusted one, so the precomputed pad is
// discarded and the read must still decrypt correctly via the fallback.
func TestReadBatchFallsBackOnCorruptedCounter(t *testing.T) {
	m := newMemory(t, 64)
	line := fillLine(0x5A)
	if err := m.Write(7, line); err != nil {
		t.Fatal(err)
	}
	ca, slot := m.layout.CounterAddr(7)
	var mask [dimm.SliceSize]byte
	mask[0] = 0x40 // corrupt line 7's own counter slot
	if err := m.mod.InjectTransient(ca, slot, mask); err != nil {
		t.Fatal(err)
	}
	// Force the walk back to DRAM: a cached leaf would mask the
	// corruption (the cache is inside the trust boundary).
	m.FlushNodeCache()
	dst := make([]byte, 2*LineSize)
	infos, err := m.ReadBatch([]uint64{7, 7}, dst)
	if err != nil {
		t.Fatalf("ReadBatch over corrupted counter: %v", err)
	}
	if !infos[0].Corrected {
		t.Fatal("corruption not corrected")
	}
	for k := 0; k < 2; k++ {
		if !bytes.Equal(dst[k*LineSize:(k+1)*LineSize], line) {
			t.Fatalf("batch entry %d decrypted wrong under stale pad", k)
		}
	}
}

// The optimistic peek must stay correct when writers race the batch:
// every batched read must return a value some Write actually stored.
func TestReadBatchConcurrentWithWrites(t *testing.T) {
	m := newMemory(t, 32)
	const workers, rounds = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lines := []uint64{uint64(w), uint64(w + 8), uint64(w + 16)}
			dst := make([]byte, len(lines)*LineSize)
			src := make([]byte, len(lines)*LineSize)
			for r := 0; r < rounds; r++ {
				for i := range src {
					src[i] = byte(w<<4 | r&0xF)
				}
				if err := m.WriteBatch(lines, src); err != nil {
					t.Error(err)
					return
				}
				if _, err := m.ReadBatch(lines, dst); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(dst, src) {
					t.Errorf("worker %d round %d: readback mismatch", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkReadHotPath measures the steady-state single-line read with a
// warm node cache — the path the acceptance criteria pin at 0 allocs/op.
func BenchmarkReadHotPath(b *testing.B) {
	m := newMemory(b, 1024)
	buf := make([]byte, LineSize)
	line := fillLine(0x11)
	if err := m.Write(42, line); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Read(42, buf); err != nil { // warm the node cache
		b.Fatal(err)
	}
	b.SetBytes(LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Read(42, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBatchHotPath measures the batched read with precomputed
// pads over a window of warm lines.
func BenchmarkReadBatchHotPath(b *testing.B) {
	m := newMemory(b, 1024)
	const n = 32
	lines := make([]uint64, n)
	src := make([]byte, n*LineSize)
	for k := range lines {
		lines[k] = uint64(k * 2)
		src[k*LineSize] = byte(k)
	}
	if err := m.WriteBatch(lines, src); err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, n*LineSize)
	infos := make([]ReadInfo, n)
	if err := m.ReadBatchInto(lines, dst, infos); err != nil { // warm caches
		b.Fatal(err)
	}
	b.SetBytes(n * LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ReadBatchInto(lines, dst, infos); err != nil {
			b.Fatal(err)
		}
	}
}

// hotWrites returns a memory with the given metadata cache and
// telemetry registry (nil: none) plus a warmed hot working set whose
// every path entry sits in the metadata cache.
func hotWrites(b *testing.B, metadataCache int, reg *telemetry.Registry) (*Memory, []uint64) {
	b.Helper()
	m, err := New(Config{DataLines: 1024, MetadataCache: metadataCache, Telemetry: reg})
	if err != nil {
		b.Fatal(err)
	}
	const hot = 64
	lines := make([]uint64, hot)
	line := fillLine(0x22)
	for k := range lines {
		lines[k] = uint64(k)
		if err := m.Write(lines[k], line); err != nil {
			b.Fatal(err)
		}
	}
	return m, lines
}

// BenchmarkWriteHotPath measures the steady-state hot-line write with
// the write-back metadata cache (the acceptance criterion pins it at
// ≤2× BenchmarkReadHotPath): counters advance in the cached path
// entries and sealing is deferred, so the write pays data encrypt +
// MAC + store + parity, not a full root walk of reseals.
func BenchmarkWriteHotPath(b *testing.B) {
	m, lines := hotWrites(b, 2048, nil)
	line := fillLine(0x22)
	b.SetBytes(LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Write(lines[i&63], line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteDefaultHotPath is the same workload on the default
// config: every write flushes its path (seals and stores each level
// before returning) — the baseline the write-back cache is measured
// against.
func BenchmarkWriteDefaultHotPath(b *testing.B) {
	m, lines := hotWrites(b, 0, nil)
	line := fillLine(0x22)
	b.SetBytes(LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Write(lines[i&63], line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteBatchHotPath measures the batched write pipeline
// (peek predicted counters → precompute pads → commit under one lock
// acquisition) over a warm write-back working set.
func BenchmarkWriteBatchHotPath(b *testing.B) {
	m, _ := hotWrites(b, 2048, nil)
	const n = 32
	lines := make([]uint64, n)
	src := make([]byte, n*LineSize)
	for k := range lines {
		lines[k] = uint64(k * 2)
		src[k*LineSize] = byte(k)
	}
	if err := m.WriteBatch(lines, src); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n * LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteBatch(lines, src); err != nil {
			b.Fatal(err)
		}
	}
}

// coldMemory returns a populated write-back memory whose 512-entry
// metadata cache holds a fraction of a percent of its 65 536 lines'
// paths, plus a uniform line stream: nearly every access misses, walks,
// fills and evicts. The same shape as bench/'s engine_cold, at a quarter
// of the size.
func coldMemory(b *testing.B) (*Memory, func() uint64) {
	b.Helper()
	const lines = 65536
	m, err := New(Config{DataLines: lines, MetadataCache: 512})
	if err != nil {
		b.Fatal(err)
	}
	line := fillLine(0x44)
	for i := uint64(0); i < lines; i++ {
		if err := m.Write(i, line); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(14))
	return m, func() uint64 { return uint64(rng.Intn(lines)) }
}

// BenchmarkReadColdPath measures the single-line read that misses the
// metadata cache: leaf and tree fetches, their MAC checks, the fills
// and the evictions they force (dirty victims left by the populate
// phase drain in the first few thousand iterations).
func BenchmarkReadColdPath(b *testing.B) {
	m, next := coldMemory(b)
	buf := make([]byte, LineSize)
	b.SetBytes(LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Read(next(), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteColdPath measures the single-line write-back write that
// misses: the path walk and verify, and one dirty-victim seal and store
// per entry it pushes out.
func BenchmarkWriteColdPath(b *testing.B) {
	m, next := coldMemory(b)
	line := fillLine(0x45)
	b.SetBytes(LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Write(next(), line); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteStageBreakdown times every write at stage granularity
// (SampleEvery(1)) and reports the mean nanoseconds spent per stage —
// the write-side Fig. 5-style breakdown. The ns/op column includes the
// sampling overhead; read the custom columns for the split.
func BenchmarkWriteStageBreakdown(b *testing.B) {
	reg := telemetry.New(telemetry.SampleEvery(1))
	m, err := New(Config{DataLines: 1024, MetadataCache: 2048, Telemetry: reg})
	if err != nil {
		b.Fatal(err)
	}
	line := fillLine(0x22)
	for k := uint64(0); k < 64; k++ {
		if err := m.Write(k, line); err != nil {
			b.Fatal(err)
		}
	}
	before := reg.Snapshot()
	b.SetBytes(LineSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Write(uint64(i)&63, line); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	delta := reg.Snapshot().Sub(before)
	for _, st := range []telemetry.Stage{telemetry.StageCounterFetch, telemetry.StageMetaUpdate, telemetry.StageOTP} {
		h := delta.Stages[st.String()]
		if h.Count == 0 {
			continue
		}
		b.ReportMetric(float64(h.SumNanos)/float64(h.Count), st.String()+"-ns")
	}
}
