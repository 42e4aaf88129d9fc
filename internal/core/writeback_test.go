package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"synergy/internal/dimm"
)

// Differential harness: drive the same operation sequence against a
// write-back engine and a write-through twin built with the same
// (zero-derived) keys, and require every observable to match — per-op
// error classes, returned bytes, poisoned sets, and, after a final
// Flush, every byte of stored device state. This is the executable
// form of the cache's core claim: deferring metadata seals never
// changes what the device ends up holding.

// diffLines is the differential memory size: large enough for two tree
// levels, small enough that the deliberately undersized write-back
// cache keeps evicting (exercising flushEntry and the trustedNode
// climb) during a run.
const diffLines = 192

// The write-back twin's cache size. diffCache keeps a few paths
// resident; diffMinCache asks for one entry and gets New's clamp,
// 2*(Levels+1), where nearly every operation evicts and CLOCK's dirty
// victims make "flush an entry whose dirty ancestors already left" the
// common case rather than the exception.
const (
	diffCache    = 24
	diffMinCache = 1
)

func newDiffPair(tb testing.TB, split bool, cache int) (wb, wt *Memory) {
	tb.Helper()
	wb, err := New(Config{DataLines: diffLines, SplitCounters: split, MetadataCache: cache})
	if err != nil {
		tb.Fatalf("New write-back: %v", err)
	}
	wt, err = New(Config{DataLines: diffLines, SplitCounters: split})
	if err != nil {
		tb.Fatalf("New write-through: %v", err)
	}
	return wb, wt
}

// diffErrs requires the two engines to fail (or succeed) identically:
// same nil-ness, same sentinel classification, and for batches the
// same failed indices.
func diffErrs(tb testing.TB, step int, what string, werr, terr error) {
	tb.Helper()
	if (werr == nil) != (terr == nil) {
		tb.Fatalf("step %d %s: write-back err %v, write-through err %v", step, what, werr, terr)
	}
	if werr == nil {
		return
	}
	for _, sentinel := range []error{ErrPoisoned, ErrAttack, ErrOutOfRange} {
		if errors.Is(werr, sentinel) != errors.Is(terr, sentinel) {
			tb.Fatalf("step %d %s: sentinel %v split: write-back %v, write-through %v",
				step, what, sentinel, werr, terr)
		}
	}
	var wbe, tbe *BatchError
	if errors.As(werr, &wbe) != errors.As(terr, &tbe) {
		tb.Fatalf("step %d %s: batch-ness split: %v vs %v", step, what, werr, terr)
	}
	if wbe != nil {
		if len(wbe.Failed) != len(tbe.Failed) {
			tb.Fatalf("step %d %s: %d vs %d failed lines", step, what, len(wbe.Failed), len(tbe.Failed))
		}
		for k := range wbe.Failed {
			if wbe.Failed[k].Index != tbe.Failed[k].Index {
				tb.Fatalf("step %d %s: failed index %d vs %d", step, what,
					wbe.Failed[k].Index, tbe.Failed[k].Index)
			}
		}
	}
}

// dropCaches flushes and resets both engines' metadata caches so a
// following fault injection is observed from memory by both, not
// masked by either cache.
func dropCaches(tb testing.TB, wb, wt *Memory) {
	tb.Helper()
	if err := wb.FlushNodeCache(); err != nil {
		tb.Fatalf("write-back FlushNodeCache: %v", err)
	}
	if err := wt.FlushNodeCache(); err != nil {
		tb.Fatalf("write-through FlushNodeCache: %v", err)
	}
}

// batchLines derives four distinct line addresses from a base.
func batchLines(line uint64) []uint64 {
	return []uint64{line, (line + 7) % diffLines, (line + 31) % diffLines, (line + 63) % diffLines}
}

// diffApply runs one interpreted op against both engines.
func diffApply(tb testing.TB, wb, wt *Memory, step int, op, arg, val byte) {
	tb.Helper()
	line := uint64(arg) % diffLines
	switch op % 10 {
	case 0, 1, 2, 3: // single-line write (heals a poisoned line in both)
		plain := fillLine(val)
		diffErrs(tb, step, "write", wb.Write(line, plain), wt.Write(line, plain))
	case 4, 5: // single-line read
		b1, b2 := make([]byte, LineSize), make([]byte, LineSize)
		_, werr := wb.Read(line, b1)
		_, terr := wt.Read(line, b2)
		diffErrs(tb, step, "read", werr, terr)
		if werr == nil && !bytes.Equal(b1, b2) {
			tb.Fatalf("step %d: read of line %d diverges", step, line)
		}
	case 6: // batched write
		ls := batchLines(line)
		src := make([]byte, len(ls)*LineSize)
		for k := range ls {
			copy(src[k*LineSize:(k+1)*LineSize], fillLine(val+byte(k)))
		}
		diffErrs(tb, step, "writebatch", wb.WriteBatch(ls, src), wt.WriteBatch(ls, src))
	case 7: // batched read; bytes must match for every non-failed index
		ls := batchLines(line)
		d1, d2 := make([]byte, len(ls)*LineSize), make([]byte, len(ls)*LineSize)
		_, werr := wb.ReadBatch(ls, d1)
		_, terr := wt.ReadBatch(ls, d2)
		diffErrs(tb, step, "readbatch", werr, terr)
		failed := map[int]bool{}
		var be *BatchError
		if errors.As(werr, &be) {
			for _, le := range be.Failed {
				failed[le.Index] = true
			}
		}
		for k := range ls {
			if !failed[k] && !bytes.Equal(d1[k*LineSize:(k+1)*LineSize], d2[k*LineSize:(k+1)*LineSize]) {
				tb.Fatalf("step %d: batch read index %d (line %d) diverges", step, k, ls[k])
			}
		}
	case 8: // full scrub pass
		_, werr := wb.Scrub(context.Background())
		_, terr := wt.Scrub(context.Background())
		diffErrs(tb, step, "scrub", werr, terr)
	case 9: // durability and fault-model events
		switch arg % 4 {
		case 0: // flush must be invisible to every later observable
			if err := wb.Flush(); err != nil {
				tb.Fatalf("step %d: Flush: %v", step, err)
			}
			if err := wt.Flush(); err != nil {
				tb.Fatalf("step %d: write-through Flush: %v", step, err)
			}
		case 1: // correctable single-chip transient on a data line
			dropCaches(tb, wb, wt)
			addr := wb.Layout().DataAddr(line)
			chip := int(val) % dimm.Chips
			mask := [dimm.SliceSize]byte{val | 1}
			wb.Module().InjectTransient(addr, chip, mask)
			wt.Module().InjectTransient(addr, chip, mask)
		case 2: // uncorrectable double fault on a data line → poison
			dropCaches(tb, wb, wt)
			addr := wb.Layout().DataAddr(line)
			m1 := [dimm.SliceSize]byte{val | 1}
			m2 := [dimm.SliceSize]byte{^val | 1}
			for _, m := range []*Memory{wb, wt} {
				m.Module().InjectTransient(addr, 1, m1)
				m.Module().InjectTransient(addr, 6, m2)
			}
		case 3: // chip repair (flushes dirty metadata before condemning)
			chip := int(val) % dimm.Chips
			diffErrs(tb, step, "repair", wb.RepairChip(chip), wt.RepairChip(chip))
		}
	}
}

// diffFinish flushes the write-back engine and requires the poisoned
// sets and the complete stored device state to be bit-identical.
func diffFinish(tb testing.TB, wb, wt *Memory) {
	tb.Helper()
	if err := wb.Flush(); err != nil {
		tb.Fatalf("final Flush: %v", err)
	}
	wp, tp := wb.Poisoned(), wt.Poisoned()
	if len(wp) != len(tp) {
		tb.Fatalf("poisoned sets diverge: %v vs %v", wp, tp)
	}
	for k := range wp {
		if wp[k] != tp[k] {
			tb.Fatalf("poisoned sets diverge: %v vs %v", wp, tp)
		}
	}
	if wb.Module().Lines() != wt.Module().Lines() {
		tb.Fatalf("module sizes diverge")
	}
	for addr := uint64(0); addr < wb.Module().Lines(); addr++ {
		l1, _ := wb.Module().PeekLine(addr)
		l2, _ := wt.Module().PeekLine(addr)
		if l1 != l2 {
			tb.Fatalf("device state diverges at line %#x after flush", addr)
		}
	}
}

// runDiff interprets ops as (op, arg, val) triples against a fresh pair.
func runDiff(tb testing.TB, split bool, cache int, ops []byte) (wb, wt *Memory) {
	tb.Helper()
	wb, wt = newDiffPair(tb, split, cache)
	for step := 0; step+2 < len(ops) && step/3 < 96; step += 3 {
		diffApply(tb, wb, wt, step/3, ops[step], ops[step+1], ops[step+2])
	}
	diffFinish(tb, wb, wt)
	return wb, wt
}

// diffScript builds a deterministic op tape from a linear congruential
// generator — a fixed, repeatable torture sequence.
func diffScript(seed uint32, n int) []byte {
	ops := make([]byte, 3*n)
	x := seed
	for i := range ops {
		x = x*1664525 + 1013904223
		ops[i] = byte(x >> 24)
	}
	return ops
}

func TestWriteBackDifferentialMonolithic(t *testing.T) {
	runDiff(t, false, diffCache, diffScript(1, 96))
}

func TestWriteBackDifferentialSplit(t *testing.T) {
	runDiff(t, true, diffCache, diffScript(2, 96))
}

// The min-cache runs also check their own premise: the pair really ran
// at 2*(Levels+1) entries, and eviction — not just the tape's Flush
// ops — sealed and wrote back dirty entries.
func runDiffMinCache(t *testing.T, split bool, seed uint32) {
	t.Helper()
	wb, _ := runDiff(t, split, diffMinCache, diffScript(seed, 96))
	if want := 2 * (wb.geo.Levels() + 1); wb.ncache.cap != want {
		t.Fatalf("cache capacity %d, want the clamp %d", wb.ncache.cap, want)
	}
	if st := wb.Stats(); st.MetaWritebacks <= uint64(wb.ncache.cap)*st.MetaFlushes {
		t.Fatalf("%d writebacks over %d flushes of a %d-entry cache: eviction never flushed a dirty victim",
			st.MetaWritebacks, st.MetaFlushes, wb.ncache.cap)
	}
}

func TestWriteBackDifferentialMinCacheMonolithic(t *testing.T) { runDiffMinCache(t, false, 5) }

func TestWriteBackDifferentialMinCacheSplit(t *testing.T) { runDiffMinCache(t, true, 6) }

// FuzzWriteBackDifferential lets the fuzzer search for an op
// interleaving where deferred metadata sealing changes any observable.
// `go test` runs the seed corpus; `go test -fuzz=FuzzWriteBackDifferential`
// explores.
func FuzzWriteBackDifferential(f *testing.F) {
	f.Add(false, false, diffScript(3, 24))
	f.Add(true, false, diffScript(4, 24))
	// The same engine at the clamped minimum cache: every op evicts.
	f.Add(false, true, diffScript(7, 48))
	f.Add(true, true, diffScript(8, 48))
	// Hand-picked seed: write, flush, inject double fault, read
	// (poison), scrub, heal by write, repair, read.
	f.Add(false, false, []byte{
		0, 5, 10,
		9, 0, 0,
		9, 2, 7,
		4, 5, 0,
		8, 0, 0,
		0, 5, 11,
		9, 3, 1,
		4, 5, 0,
	})
	f.Fuzz(func(t *testing.T, split, minCache bool, ops []byte) {
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		cache := diffCache
		if minCache {
			cache = diffMinCache
		}
		runDiff(t, split, cache, ops)
	})
}

// TestBatchZeroAllocSteadyState is the executable form of the hot-path
// budget: once warm, batched reads and writes allocate nothing — on one
// rank, and on a 4-rank Array whose batches group, stage and scatter
// through pooled scratch.
func TestBatchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; exact counts only hold without -race")
	}
	m, err := New(Config{DataLines: 4096, MetadataCache: 4096})
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArray(Config{DataLines: 4096, Ranks: 4, MetadataCache: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		store interface {
			WriteBatch(lines []uint64, src []byte) error
			ReadBatchInto(lines []uint64, dst []byte, infos []ReadInfo) error
		}
	}{{"memory", m}, {"array4", a}} {
		lines := make([]uint64, 32)
		for k := range lines {
			lines[k] = uint64(k * 5)
		}
		src := make([]byte, len(lines)*LineSize)
		for i := range src {
			src[i] = byte(i)
		}
		dst := make([]byte, len(src))
		infos := make([]ReadInfo, len(lines))
		// Warm: fault-free steady state with every path entry cached.
		for i := 0; i < 4; i++ {
			if err := tc.store.WriteBatch(lines, src); err != nil {
				t.Fatal(err)
			}
			if err := tc.store.ReadBatchInto(lines, dst, infos); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(50, func() {
			if err := tc.store.WriteBatch(lines, src); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: WriteBatch steady state allocates %.1f objects/op, want 0", tc.name, avg)
		}
		if avg := testing.AllocsPerRun(50, func() {
			if err := tc.store.ReadBatchInto(lines, dst, infos); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: ReadBatchInto steady state allocates %.1f objects/op, want 0", tc.name, avg)
		}
		if !bytes.Equal(dst, src) {
			t.Errorf("%s: read back differs from what was written", tc.name)
		}
	}
}

// TestChurnZeroAllocSteadyState is the same budget where the cache
// cannot hold the working set: every single-line Read and Write misses,
// fills and evicts (flushing dirty victims on the way), and still
// allocates nothing, because insert recycles the entries remove parks on
// the free list.
func TestChurnZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; exact counts only hold without -race")
	}
	const lines = 8192
	m, err := New(Config{DataLines: lines, MetadataCache: 32})
	if err != nil {
		t.Fatal(err)
	}
	buf := fillLine(0x33)
	next := uint64(0)
	step := func() uint64 { next = (next + 2731) % lines; return next } // coprime stride: no locality
	churn := func() {
		if err := m.Write(step(), buf); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Read(step(), buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*lines; i++ { // warm: fill the cache, the free list and the scratch
		churn()
	}
	before := m.Stats()
	if avg := testing.AllocsPerRun(2000, churn); avg != 0 {
		t.Errorf("churning Write+Read allocates %.2f objects/op, want 0", avg)
	}
	after := m.Stats()
	if after.MetaCacheMisses == before.MetaCacheMisses || after.MetaWritebacks == before.MetaWritebacks {
		t.Fatalf("the measured phase never missed or wrote back: %+v", after)
	}
}

// TestWriteBackConcurrentFlushScrub races writers against a concurrent
// flusher and scrubber on a multi-rank write-back array — the -race CI
// step's main subject. Correctness bar: no data race, no error, and
// every line readable with its last-written contents after a final
// Sync.
func TestWriteBackConcurrentFlushScrub(t *testing.T) {
	const (
		lines   = 512
		writers = 4
		rounds  = 200
	)
	a, err := NewArray(Config{DataLines: lines, Ranks: 2, MetadataCache: 64})
	if err != nil {
		t.Fatal(err)
	}
	var writersWG, bgWG sync.WaitGroup
	done := make(chan struct{})
	errCh := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			buf := make([]byte, LineSize)
			// Each writer owns a disjoint line stripe, so last-written
			// contents are well-defined per line.
			for r := 0; r < rounds; r++ {
				line := uint64(w*lines/writers + r%(lines/writers))
				for i := range buf {
					buf[i] = byte(w<<6) + byte(r)
				}
				if err := a.Write(line, buf); err != nil {
					errCh <- err
					return
				}
				if _, err := a.Read(line, buf); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	bgWG.Add(2)
	go func() { // flusher
		defer bgWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := a.Sync(); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() { // scrubber
		defer bgWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := a.Scrub(context.Background()); err != nil {
				errCh <- err
				return
			}
		}
	}()
	// Wait for the writers, then stop the background loops.
	writersWG.Wait()
	close(done)
	bgWG.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, LineSize)
	for line := uint64(0); line < lines; line++ {
		if _, err := a.Read(line, buf); err != nil && !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("post-sync read of line %d: %v", line, err)
		}
	}
}
