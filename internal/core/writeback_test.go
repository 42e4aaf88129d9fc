package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"slices"
	"sync"
	"testing"

	"synergy/internal/dimm"
	"synergy/internal/telemetry"
)

// Differential harness: drive the same operation sequence against a
// write-back engine and a default-config twin (every write seals and
// stores its own path) built with the same (zero-derived) keys, and
// require every observable to match — per-op error classes, returned
// bytes, poisoned sets, and, after a final Flush, every byte of stored
// device state. This is the executable form of the cache's core claim:
// deferring metadata seals never changes what the device ends up
// holding. The default twin is in turn pinned to the write-through
// engine it replaced by TestPinnedDeviceDigests.

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

func newDiffPair(tb testing.TB, split bool, cache int) (wb, ref *Array) {
	tb.Helper()
	wb, err := NewArray(Config{DataLines: diffLines, SplitCounters: split, MetadataCache: cache})
	if err != nil {
		tb.Fatalf("NewArray write-back: %v", err)
	}
	ref, err = NewArray(Config{DataLines: diffLines, SplitCounters: split})
	if err != nil {
		tb.Fatalf("NewArray default: %v", err)
	}
	return wb, ref
}

// diffErrs requires the two engines to fail (or succeed) identically:
// same nil-ness, same sentinel classification, and for batches the
// same failed indices.
func diffErrs(tb testing.TB, step int, werr, rerr error) {
	tb.Helper()
	if (werr == nil) != (rerr == nil) {
		tb.Fatalf("step %d: write-back err %v, default err %v", step, werr, rerr)
	}
	if werr == nil {
		return
	}
	for _, sentinel := range []error{ErrPoisoned, ErrAttack, ErrOutOfRange} {
		if errors.Is(werr, sentinel) != errors.Is(rerr, sentinel) {
			tb.Fatalf("step %d: sentinel %v split: write-back %v, default %v",
				step, sentinel, werr, rerr)
		}
	}
	var wbe, rbe *BatchError
	if errors.As(werr, &wbe) != errors.As(rerr, &rbe) {
		tb.Fatalf("step %d: batch-ness split: %v vs %v", step, werr, rerr)
	}
	if wbe != nil {
		if len(wbe.Failed) != len(rbe.Failed) {
			tb.Fatalf("step %d: %d vs %d failed lines", step, len(wbe.Failed), len(rbe.Failed))
		}
		for k := range wbe.Failed {
			if wbe.Failed[k].Index != rbe.Failed[k].Index {
				tb.Fatalf("step %d: failed index %d vs %d", step,
					wbe.Failed[k].Index, rbe.Failed[k].Index)
			}
		}
	}
}

// dropCache flushes and resets m's metadata cache so a following fault
// injection is observed from memory, not masked by the cache.
func dropCache(tb testing.TB, m *Memory) {
	tb.Helper()
	if err := m.FlushNodeCache(); err != nil {
		tb.Fatalf("FlushNodeCache: %v", err)
	}
}

// batchLines derives four distinct line addresses from a base.
func batchLines(line uint64) []uint64 {
	return []uint64{line, (line + 7) % diffLines, (line + 31) % diffLines, (line + 63) % diffLines}
}

// rankLines maps rank-local lines of rank r to a's global lines, in
// place; on a one-rank array it is the identity.
func rankLines(a *Array, r int, ls []uint64) []uint64 {
	for k, l := range ls {
		ls[k] = a.globalLine(r, l)
	}
	return ls
}

// diffOp runs one interpreted op against rank r of a and returns what
// the caller observes: the bytes a read returned (nil for other ops)
// and the error. The tape's lines are rank-local, so every op — reads,
// writes, batches, scrub, flush and fault events alike — touches rank r
// only; one-rank callers pass r = 0 and see the tape's own lines.
func diffOp(tb testing.TB, a *Array, r, step int, op, arg, val byte) ([]byte, error) {
	tb.Helper()
	m := a.ranks[r]
	line := uint64(arg) % diffLines
	switch op % 10 {
	case 0, 1, 2, 3: // single-line write (heals a poisoned line)
		return nil, a.Write(a.globalLine(r, line), fillLine(val))
	case 4, 5: // single-line read
		buf := make([]byte, LineSize)
		_, err := a.Read(a.globalLine(r, line), buf)
		return buf, err
	case 6: // batched write
		ls := rankLines(a, r, batchLines(line))
		src := make([]byte, len(ls)*LineSize)
		for k := range ls {
			copy(src[k*LineSize:(k+1)*LineSize], fillLine(val+byte(k)))
		}
		return nil, a.WriteBatch(ls, src)
	case 7: // batched read
		ls := rankLines(a, r, batchLines(line))
		dst := make([]byte, len(ls)*LineSize)
		_, err := a.ReadBatch(ls, dst)
		return dst, err
	case 8: // full scrub pass
		_, _, err := m.scrubFrom(context.Background(), 0)
		return nil, err
	}
	// Durability and fault-model events.
	addr := m.Layout().DataAddr(line)
	switch arg % 5 {
	case 0: // flush must be invisible to every later observable
		if err := m.flush(); err != nil {
			tb.Fatalf("step %d: Flush: %v", step, err)
		}
	case 1: // correctable single-chip transient on a data line
		dropCache(tb, m)
		m.Module().InjectTransient(addr, int(val)%dimm.Chips, [dimm.SliceSize]byte{val | 1})
	case 2: // uncorrectable double fault on a data line → poison
		dropCache(tb, m)
		m.Module().InjectTransient(addr, 1, [dimm.SliceSize]byte{val | 1})
		m.Module().InjectTransient(addr, 6, [dimm.SliceSize]byte{^val | 1})
	case 3: // chip repair (flushes dirty metadata, clears the chip's permanent faults)
		return nil, a.RepairChip(r, int(val)%dimm.Chips)
	case 4: // whole-chip permanent failure; one dead chip at a time
		if m.Module().ActiveFaults() == 0 {
			dropCache(tb, m)
			if _, err := m.Module().InjectPermanent(int(val)%dimm.Chips, 0, m.Module().Lines()-1,
				[dimm.SliceSize]byte{val | 1}); err != nil {
				tb.Fatalf("step %d: InjectPermanent: %v", step, err)
			}
		}
	}
	return nil, nil
}

// diffApply runs one interpreted op against both engines and requires
// the same outcome, and the same bytes for every line a read returned.
func diffApply(tb testing.TB, wb, ref *Array, step int, op, arg, val byte) {
	tb.Helper()
	wout, werr := diffOp(tb, wb, 0, step, op, arg, val)
	rout, rerr := diffOp(tb, ref, 0, step, op, arg, val)
	diffErrs(tb, step, werr, rerr)
	failed := map[int]bool{}
	var be *BatchError
	if errors.As(werr, &be) {
		for _, le := range be.Failed {
			failed[le.Index] = true
		}
	} else if werr != nil {
		return
	}
	for k := 0; k*LineSize < len(wout); k++ {
		if !failed[k] && !bytes.Equal(wout[k*LineSize:(k+1)*LineSize], rout[k*LineSize:(k+1)*LineSize]) {
			tb.Fatalf("step %d: read index %d (op %d, line %d) diverges", step, k, op%10, uint64(arg)%diffLines)
		}
	}
}

// diffFinish flushes the write-back engine and requires the poisoned
// sets and the complete stored device state to be bit-identical.
func diffFinish(tb testing.TB, wb, ref *Array) {
	tb.Helper()
	if err := wb.Sync(); err != nil {
		tb.Fatalf("final Flush: %v", err)
	}
	wp, rp := wb.Poisoned(), ref.Poisoned()
	if !slices.Equal(wp, rp) {
		tb.Fatalf("poisoned sets diverge: %v vs %v", wp, rp)
	}
	if wb.ranks[0].Module().Lines() != ref.ranks[0].Module().Lines() {
		tb.Fatalf("module sizes diverge")
	}
	for addr := uint64(0); addr < wb.ranks[0].Module().Lines(); addr++ {
		l1, _ := wb.ranks[0].Module().PeekLine(addr)
		l2, _ := ref.ranks[0].Module().PeekLine(addr)
		if l1 != l2 {
			tb.Fatalf("device state diverges at line %#x after flush", addr)
		}
	}
}

// runDiff interprets ops as (op, arg, val) triples against a fresh pair.
func runDiff(tb testing.TB, split bool, cache int, ops []byte) (wb, ref *Array) {
	tb.Helper()
	wb, ref = newDiffPair(tb, split, cache)
	for step := 0; step+2 < len(ops) && step/3 < 96; step += 3 {
		diffApply(tb, wb, ref, step/3, ops[step], ops[step+1], ops[step+2])
	}
	diffFinish(tb, wb, ref)
	return wb, ref
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

// deadChipScript kills chip for the whole tape, then interleaves n
// single and batched reads and writes: the scoreboard condemns the chip
// part-way through, so the tape covers both the per-level
// reconstruction and the §IV-A pre-emptive paths on reads and writes.
func deadChipScript(seed uint32, chip byte, n int) []byte {
	ops := append([]byte{9, 4, chip}, diffScript(seed, n)...)
	for k := 3; k < len(ops); k += 3 {
		ops[k] %= 8
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
	a, _ := runDiff(t, split, diffMinCache, diffScript(seed, 96))
	wb := a.ranks[0]
	if want := 2 * (wb.geo.Levels() + 1); wb.ncache.cap != want {
		t.Fatalf("cache capacity %d, want the clamp %d", wb.ncache.cap, want)
	}
	if st := wb.Stats(); st.MetaWritebacks <= uint64(wb.ncache.cap)*st.MetaFlushes {
		t.Fatalf("%d writebacks over %d flushes of a %d-entry cache: eviction never flushed a dirty victim",
			st.MetaWritebacks, st.MetaFlushes, wb.ncache.cap)
	}
}

func TestWriteBackDifferentialMinCacheMonolithic(t *testing.T) { runDiffMinCache(t, false, 5) }

func TestWriteBackDifferentialMinCacheSplit(t *testing.T) { runDiffMinCache(t, true, 7) }

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
	// Writes and reads under a dead chip, before and after it is
	// condemned: a data chip and the MAC chip, every cache/split pairing.
	f.Add(false, false, deadChipScript(9, 5, 63))
	f.Add(true, true, deadChipScript(10, 5, 63))
	f.Add(false, true, deadChipScript(11, 2, 63))
	f.Add(true, false, deadChipScript(12, dimm.ECCChip, 63))
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

// deviceDigest runs a tape against one default-config engine and returns
// a running SHA-256 over the complete stored module image taken after
// every op.
func deviceDigest(tb testing.TB, split bool, ops []byte) string {
	tb.Helper()
	a, err := NewArray(Config{DataLines: diffLines, SplitCounters: split})
	if err != nil {
		tb.Fatal(err)
	}
	m := a.ranks[0]
	h := sha256.New()
	image := make([]byte, m.Module().ImageSize())
	for step := 0; step+2 < len(ops); step += 3 {
		diffOp(tb, a, 0, step/3, ops[step], ops[step+1], ops[step+2])
		if err := m.Module().Serialize(image); err != nil {
			tb.Fatal(err)
		}
		h.Write(image)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPinnedDeviceDigests holds the default configuration to the
// write-through engine it replaced: every digest below was recorded from
// that engine (Config{DataLines: 192}, which then resealed and stored its
// whole path inside every write) and must be reproduced by the one write
// pipeline flushing its own path. A mismatch means some op now leaves
// different bytes on the device than the deleted reference did.
func TestPinnedDeviceDigests(t *testing.T) {
	for _, tc := range []struct {
		name  string
		split bool
		ops   []byte
		want  string
	}{
		{"script1", false, diffScript(1, 96), "7653f7fd09866251e48723e94835ea3d4ad0c52cfdb8469fd021391bb874dd23"},
		{"script1/split", true, diffScript(1, 96), "e6a3be15117b3295f015afc2f5f89a7017e3ae30aa12a81bf4d250336a35e6b3"},
		{"script2", false, diffScript(2, 96), "1be6ed12437374848f5a292c4b2266f5898b7de4bd61e2d16a49c7fda0f94064"},
		{"script2/split", true, diffScript(2, 96), "4f4c72d48af013d546bd29c24bd4256d8963efaa9f44312851c5a2a0a86331d7"},
		{"deadchip", false, deadChipScript(10, 5, 95), "6635ee5080628732a8371fc65e78514d49bd3b1997ff1886c76c9cad022e750d"},
		{"deadchip/split", true, deadChipScript(10, 5, 95), "9bf91cf5fc2d26b838cd00ced157535d01aaace6ff2a78d0d0b3dc4849ca5598"},
	} {
		if got := deviceDigest(t, tc.split, tc.ops); got != tc.want {
			t.Errorf("%s: device digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCondemnedChipWritesLogNothing: once the scoreboard has condemned a
// chip, a write whose path comes from memory applies that chip's parity
// fix to every level silently, as reads do (§IV-A). It must not log a
// §IV-B correction per level per write — that would drown the error
// profile the platform's analysis and the server's shedding act on.
func TestCondemnedChipWritesLogNothing(t *testing.T) {
	const dead = 3
	for _, cache := range []int{64, 0} {
		a, err := NewArray(Config{DataLines: diffLines, FaultThreshold: 2, MetadataCache: cache})
		if err != nil {
			t.Fatal(err)
		}
		m := a.ranks[0]
		if _, err := m.InjectPermanent(dead, 0, m.Module().Lines()-1, [dimm.SliceSize]byte{0x5A}); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, LineSize)
		for i := uint64(0); m.KnownBadChip() < 0 && i < diffLines; i++ {
			if _, err := a.Read(i, buf); err != nil {
				t.Fatalf("cache %d: read %d: %v", cache, i, err)
			}
		}
		if m.KnownBadChip() != dead {
			t.Fatalf("cache %d: condemned chip %d, want %d", cache, m.KnownBadChip(), dead)
		}
		dropCache(t, m)
		before, logged := m.Stats(), len(m.ErrorLog().Events())
		// Lines whose parity slot sits on the dead chip are skipped: their
		// parity update is the documented residual window (DESIGN §10).
		var lines []uint64
		for i := uint64(0); len(lines) < 32; i += 5 {
			if i%8 != dead {
				lines = append(lines, i)
			}
		}
		for _, i := range lines {
			if err := a.Write(i, fillLine(byte(i))); err != nil {
				t.Fatalf("cache %d: write %d: %v", cache, i, err)
			}
		}
		after := m.Stats()
		if after.CorrectionEvents != before.CorrectionEvents ||
			after.ReconstructionAttempts != before.ReconstructionAttempts ||
			len(m.ErrorLog().Events()) != logged {
			t.Errorf("cache %d: 32 writes under condemned chip %d logged %d corrections, %d reconstruction attempts, %d events; want none",
				cache, dead, after.CorrectionEvents-before.CorrectionEvents,
				after.ReconstructionAttempts-before.ReconstructionAttempts,
				len(m.ErrorLog().Events())-logged)
		}
		for _, i := range lines {
			if got, _ := mustRead(t, a, i); !bytes.Equal(got, fillLine(byte(i))) {
				t.Fatalf("cache %d: line %d reads back wrong", cache, i)
			}
		}
	}
}

// TestBatchZeroAllocSteadyState is the executable form of the hot-path
// budget: once warm, batched reads and writes allocate nothing — on one
// rank, and on a 4-rank Array whose batches cross every rank.
func TestBatchZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; exact counts only hold without -race")
	}
	m, err := NewArray(Config{DataLines: 4096, MetadataCache: 4096})
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
	a, err := NewArray(Config{DataLines: lines, MetadataCache: 32})
	if err != nil {
		t.Fatal(err)
	}
	buf := fillLine(0x33)
	next := uint64(0)
	step := func() uint64 { next = (next + 2731) % lines; return next } // coprime stride: no locality
	churn := func() {
		if err := a.Write(step(), buf); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Read(step(), buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*lines; i++ { // warm: fill the cache, the free list and the scratch
		churn()
	}
	before := a.Stats()
	if avg := testing.AllocsPerRun(2000, churn); avg != 0 {
		t.Errorf("churning Write+Read allocates %.2f objects/op, want 0", avg)
	}
	after := a.Stats()
	if after.MetaCacheMisses == before.MetaCacheMisses || after.MetaWritebacks == before.MetaWritebacks {
		t.Fatalf("the measured phase never missed or wrote back: %+v", after)
	}
}

// TestWriteBackConcurrentFlushScrub races writers against a concurrent
// flusher, scrubber and telemetry scraper on a multi-rank write-back
// array — the -race CI step's main subject. Correctness bar: no data
// race, no error, and every line readable with its last-written
// contents after a final Sync.
func TestWriteBackConcurrentFlushScrub(t *testing.T) {
	const (
		lines   = 512
		writers = 4
		rounds  = 200
	)
	reg := telemetry.New()
	a, err := NewArray(Config{DataLines: lines, Ranks: 2, MetadataCache: 64, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	var writersWG, bgWG sync.WaitGroup
	done := make(chan struct{})
	errCh := make(chan error, writers+3)
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
	bgWG.Add(3)
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
	go func() { // scraper: every scrape reads each rank under its read lock
		defer bgWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			reg.Snapshot()
			if err := reg.WritePrometheus(io.Discard); err != nil {
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
