package core

// Tests and benchmarks for the hot paths: batches (each line served as
// its single-line op) and the zero-allocation steady-state read.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"synergy/internal/dimm"
	"synergy/internal/telemetry"
)

// ReadBatch must return exactly what per-line Reads return, across
// plain and split-counter organizations, lines with differing counters,
// and duplicates.
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

// A corrupted counter line must be corrected by the first batched read
// of it, and both copies must decrypt under the corrected counter: the
// second copy is served from the repaired, now-cached path.
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
			t.Fatalf("batch entry %d decrypted wrong after counter correction", k)
		}
	}
}

// Batches must stay correct when writers race them: every batched read
// must return a value some Write actually stored.
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

// TestBatchEqualsSingles pins the batch contract: a batch is its lines'
// single-line ops, in order. Two identical memories run one tape; one
// issues each batch as a batch, the other as its lines one call at a
// time. Read bytes, ReadInfos, per-line errors (a BatchError entry
// against the single call's error), the full Stats and the final device
// image must all match.
func TestBatchEqualsSingles(t *testing.T) {
	// The random tapes never aim a batch at a poisoned line; this one
	// does, so failed lines sit mid-batch (index 1 of batchLines).
	poisonTape := []byte{
		0, 0, 1, 0, 7, 2, 0, 12, 3, // write lines 0, 7, 12
		9, 7, 5, // double fault on line 7 (arg%5 == 2)
		7, 0, 0, // batch read 0, 7, 31, 63: line 7 fails closed and is poisoned
		7, 0, 0, // again: line 7 fails fast
		9, 12, 3, // double fault on line 12
		7, 5, 0, // batch read 5, 12, 36, 68: line 12 fails closed
		6, 0, 9, // batch write heals line 7
		7, 0, 0,
		9, 4, 3, // chip 3 dies (arg%5 == 4)
		7, 0, 0, 7, 5, 0, 4, 5, 0, 4, 36, 0, 7, 5, 0,
		6, 5, 1, // batch write heals line 12 under the dead chip
		7, 5, 0, 7, 0, 0,
	}
	for _, tc := range []struct {
		name  string
		split bool
		cache int
		ops   []byte
	}{
		{"monolithic", false, diffCache, diffScript(1, 96)},
		{"monolithic/default", false, 0, diffScript(3, 96)},
		{"split", true, diffCache, diffScript(2, 96)},
		{"deadchip", false, diffCache, deadChipScript(10, 5, 95)},
		{"deadchip/split/default", true, 0, deadChipScript(11, dimm.ECCChip, 95)},
		{"poisoned", false, diffCache, poisonTape},
		{"poisoned/split/default", true, 0, poisonTape},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var pair [2]*Memory // batched, singles
			for k := range pair {
				m, err := New(Config{DataLines: diffLines, SplitCounters: tc.split, MetadataCache: tc.cache})
				if err != nil {
					t.Fatal(err)
				}
				pair[k] = m
			}
			batched, singles := pair[0], pair[1]
			for step := 0; step+2 < len(tc.ops); step += 3 {
				op, arg, val := tc.ops[step], tc.ops[step+1], tc.ops[step+2]
				if op%10 == 6 || op%10 == 7 {
					batchVsSingles(t, batched, singles, step/3, op%10 == 7, uint64(arg)%diffLines, val)
					continue
				}
				bout, berr := diffOp(t, batched, step/3, op, arg, val)
				sout, serr := diffOp(t, singles, step/3, op, arg, val)
				if fmt.Sprint(berr) != fmt.Sprint(serr) || !bytes.Equal(bout, sout) {
					t.Fatalf("step %d (op %d): twins diverge: %v vs %v", step/3, op%10, berr, serr)
				}
			}
			if bs, ss := batched.Stats(), singles.Stats(); bs != ss {
				t.Fatalf("stats diverge:\nbatched %+v\nsingles %+v", bs, ss)
			}
			images := [2][]byte{}
			for k, m := range pair {
				images[k] = make([]byte, m.Module().ImageSize())
				if err := m.Module().Serialize(images[k]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(images[0], images[1]) {
				t.Fatal("device images diverge")
			}
		})
	}
}

// batchVsSingles issues one batch of batchLines(line) on batched and the
// same lines one call at a time on singles, and requires every line's
// outcome to match.
func batchVsSingles(t *testing.T, batched, singles *Memory, step int, read bool, line uint64, val byte) {
	t.Helper()
	ls := batchLines(line)
	buf := [2][]byte{make([]byte, len(ls)*LineSize), make([]byte, len(ls)*LineSize)}
	if !read {
		for k := range ls {
			copy(buf[0][k*LineSize:], fillLine(val+byte(k)))
		}
		copy(buf[1], buf[0])
	}
	var infos [2][]ReadInfo
	var berr error
	if read {
		infos[0], berr = batched.ReadBatch(ls, buf[0])
		infos[1] = make([]ReadInfo, len(ls))
	} else {
		berr = batched.WriteBatch(ls, buf[0])
	}
	perLine := make([]error, len(ls))
	if berr != nil {
		var be *BatchError
		if !errors.As(berr, &be) {
			t.Fatalf("step %d: batch failed without a BatchError: %v", step, berr)
		}
		for _, le := range be.Failed {
			if le.Line != ls[le.Index] {
				t.Fatalf("step %d: failed index %d names line %d, want %d", step, le.Index, le.Line, ls[le.Index])
			}
			perLine[le.Index] = le.Err
		}
	}
	for k, i := range ls {
		var err error
		if read {
			infos[1][k], err = singles.Read(i, buf[1][k*LineSize:(k+1)*LineSize])
		} else {
			err = singles.Write(i, buf[1][k*LineSize:(k+1)*LineSize])
		}
		if fmt.Sprint(perLine[k]) != fmt.Sprint(err) {
			t.Fatalf("step %d: line %d: batched err %v, single err %v", step, i, perLine[k], err)
		}
		if err != nil || !read {
			continue
		}
		if !bytes.Equal(buf[0][k*LineSize:(k+1)*LineSize], buf[1][k*LineSize:(k+1)*LineSize]) {
			t.Fatalf("step %d: line %d: batched read bytes differ from the single read", step, i)
		}
		if !reflect.DeepEqual(infos[0][k], infos[1][k]) {
			t.Fatalf("step %d: line %d: ReadInfo %+v vs %+v", step, i, infos[0][k], infos[1][k])
		}
	}
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

// BenchmarkReadBatchHotPath measures the batched read over a window of
// warm lines: one shared-lock Read per line.
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

// BenchmarkWriteBatchHotPath measures the batched write — every line's
// write under one lock acquisition — over a warm write-back working set.
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
