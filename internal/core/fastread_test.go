package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synergy/internal/dimm"
	"synergy/internal/telemetry"
)

// The steady-state clean read must be served by the shared-lock
// optimistic path: warm cache, healthy rank, no faults.
func TestFastReadServesWarmLine(t *testing.T) {
	a, m := newMemory(t, 64)
	for i := uint64(0); i < 64; i++ {
		if err := a.Write(i, fillLine(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	s0 := m.Stats()
	for i := uint64(0); i < 32; i++ {
		got, info := mustRead(t, a, i)
		if !bytes.Equal(got, fillLine(byte(i))) {
			t.Fatalf("line %d wrong via fast path", i)
		}
		if info.Corrected {
			t.Fatalf("line %d claimed a correction on a clean read", i)
		}
	}
	s1 := m.Stats()
	if got := s1.FastReads - s0.FastReads; got != 32 {
		t.Fatalf("FastReads advanced by %d, want 32 (every warm read fast)", got)
	}
	// Fast reads still count as served reads and as cache-stopped walks.
	if got := s1.Reads - s0.Reads; got != 32 {
		t.Fatalf("Reads advanced by %d, want 32", got)
	}
	if got := s1.NodeCacheStops - s0.NodeCacheStops; got != 32 {
		t.Fatalf("NodeCacheStops advanced by %d, want 32", got)
	}
}

// A cold metadata cache must escalate (a raw, unverified counter gives
// no replay protection), and the exclusive walk it falls back to must
// re-warm the cache so the next read is fast again.
func TestFastReadEscalatesOnCacheMiss(t *testing.T) {
	a, m := newMemory(t, 64)
	if err := a.Write(7, fillLine(0x5A)); err != nil {
		t.Fatal(err)
	}
	if err := m.FlushNodeCache(); err != nil {
		t.Fatal(err)
	}
	s0 := m.Stats()
	got, _ := mustRead(t, a, 7)
	if !bytes.Equal(got, fillLine(0x5A)) {
		t.Fatal("wrong data after cache flush")
	}
	s1 := m.Stats()
	if s1.FastReads != s0.FastReads {
		t.Fatal("cold-cache read claimed the fast path")
	}
	if s1.ReadEscalations != s0.ReadEscalations+1 {
		t.Fatalf("ReadEscalations = %d, want %d", s1.ReadEscalations, s0.ReadEscalations+1)
	}
	// The escalated walk re-filled the cache: fast again.
	mustRead(t, a, 7)
	if s2 := m.Stats(); s2.FastReads != s1.FastReads+1 {
		t.Fatal("read after escalation did not return to the fast path")
	}
}

// On-device corruption fails the optimistic MAC verify with an
// unchanged generation, so the read escalates to the exclusive
// correction machinery — and still returns the right bytes.
func TestFastReadEscalatesOnCorruption(t *testing.T) {
	a, m := newMemory(t, 64)
	if err := a.Write(3, fillLine(0xC3)); err != nil {
		t.Fatal(err)
	}
	mustRead(t, a, 3) // confirm warm fast path first
	if err := m.InjectTransient(m.Layout().DataAddr(3), 2, [dimm.SliceSize]byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	s0 := m.Stats()
	got, info := mustRead(t, a, 3)
	if !bytes.Equal(got, fillLine(0xC3)) {
		t.Fatal("wrong data after single-chip corruption")
	}
	if !info.Corrected {
		t.Fatal("corrupted read not flagged Corrected")
	}
	s1 := m.Stats()
	if s1.FastReads != s0.FastReads {
		t.Fatal("corrupted read claimed the fast path")
	}
	if s1.ReadEscalations != s0.ReadEscalations+1 {
		t.Fatalf("ReadEscalations = %d, want %d", s1.ReadEscalations, s0.ReadEscalations+1)
	}
	// Injection must not have bumped the generation: a genuine
	// corruption classifies as mismatch, not as a retryable conflict.
	if s1.GenRetries != s0.GenRetries {
		t.Fatal("corruption consumed a generation retry")
	}
}

// Poisoned lines fail fast without leaving the shared lock: the
// fail-closed answer needs no exclusive work, and a healing write
// restores the fast path.
func TestFastReadPoisonFastFail(t *testing.T) {
	a, m := newMemory(t, 64)
	for i := uint64(0); i < 64; i++ {
		if err := a.Write(i, fillLine(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	corruptTwoChips(m, 7)
	buf := make([]byte, LineSize)
	if _, err := a.Read(7, buf); !errors.Is(err, ErrAttack) {
		t.Fatalf("uncorrectable read: %v, want ErrAttack", err)
	}
	s0 := m.Stats()
	if _, err := a.Read(7, buf); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("poisoned read: %v, want ErrPoisoned", err)
	}
	s1 := m.Stats()
	if s1.PoisonFastFails != s0.PoisonFastFails+1 {
		t.Fatalf("PoisonFastFails = %d, want %d", s1.PoisonFastFails, s0.PoisonFastFails+1)
	}
	if s1.FastReads != s0.FastReads {
		t.Fatal("poison fast-fail counted as a served fast read")
	}
	// Healing write bumps the generation and clears the poison; the
	// line serves fast again.
	if err := a.Write(7, fillLine(0xEE)); err != nil {
		t.Fatal(err)
	}
	got, _ := mustRead(t, a, 7)
	if !bytes.Equal(got, fillLine(0xEE)) {
		t.Fatal("wrong data after healing write")
	}
	if s2 := m.Stats(); s2.FastReads != s1.FastReads+1 {
		t.Fatal("healed line not served by the fast path")
	}
}

// degradedLines is how many lines the degraded-mode tests warm and read.
const degradedLines = 16

// condemnedMemory builds a 64-line memory whose chip returns garbage on
// every read, reads every line until the scoreboard condemns the chip,
// then flushes the metadata cache and warms lines [0, degradedLines)
// again. Exclusive pre-emptive reads cache their verified path, so the
// warm pass escalates once per counter line (a cache miss) and no more;
// and they write back only cells that differ from the fix, so with the
// chip merely dead they store nothing.
func condemnedMemory(t *testing.T, chip int) (*Array, *Memory) {
	t.Helper()
	a, m := newMemory(t, 64)
	for i := uint64(0); i < 64; i++ {
		if err := a.Write(i, fillLine(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.InjectPermanent(chip, 0, m.Module().Lines()-1, [dimm.SliceSize]byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := m.FlushNodeCache(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, LineSize)
	for i := uint64(0); i < 64; i++ {
		if _, err := a.Read(i, buf); err != nil {
			t.Fatalf("read %d under chip %d fault: %v", i, chip, err)
		}
	}
	if m.KnownBadChip() != chip {
		t.Fatalf("scoreboard condemned chip %d, want %d", m.KnownBadChip(), chip)
	}
	if err := m.FlushNodeCache(); err != nil {
		t.Fatal(err)
	}
	misses := m.escalations[telemetry.EscCacheMiss].Load()
	s0, w0 := m.Stats(), m.Module().Writes()
	for i := uint64(0); i < degradedLines; i++ {
		if _, err := a.Read(i, buf); err != nil {
			t.Fatalf("warm read %d: %v", i, err)
		}
	}
	if w := m.Module().Writes() - w0; w != 0 {
		t.Fatalf("warm pass stored %d lines, want none: the cells already hold the fixed bytes", w)
	}
	want := uint64(degradedLines) / m.Layout().CtrsPerLine
	if got := m.Stats().ReadEscalations - s0.ReadEscalations; got != want {
		t.Fatalf("warm pass escalated %d reads, want %d (one cache miss per counter line)", got, want)
	}
	if got := m.escalations[telemetry.EscCacheMiss].Load() - misses; got != want {
		t.Fatalf("warm pass escalated %d cache misses, want %d", got, want)
	}
	return a, m
}

// requireShared reads lines and requires every one to be served by the
// shared-lock pre-emptive path: right bytes, info.Preemptive, counted as
// a PreemptiveFix and not a FastRead, no escalation, one MAC per read
// and no device store.
func requireShared(t *testing.T, a *Array, lines []uint64) {
	t.Helper()
	m := a.ranks[0]
	s0, w0 := m.Stats(), m.Module().Writes()
	for _, i := range lines {
		got, info := mustRead(t, a, i)
		if !bytes.Equal(got, fillLine(byte(i))) {
			t.Fatalf("line %d wrong in degraded mode", i)
		}
		if !info.Preemptive {
			t.Fatalf("line %d: info.Preemptive not set", i)
		}
	}
	s1, n := m.Stats(), uint64(len(lines))
	if s1.FastReads != s0.FastReads {
		t.Errorf("FastReads advanced by %d, want 0: pre-emptive reads are not clean fast reads", s1.FastReads-s0.FastReads)
	}
	if got := s1.PreemptiveFixes - s0.PreemptiveFixes; got != n {
		t.Errorf("PreemptiveFixes advanced by %d, want %d", got, n)
	}
	if got := s1.ReadEscalations - s0.ReadEscalations; got != 0 {
		t.Errorf("ReadEscalations advanced by %d, want 0", got)
	}
	if got := s1.Reads - s0.Reads; got != n {
		t.Errorf("Reads advanced by %d, want %d", got, n)
	}
	if got := s1.MACComputations - s0.MACComputations; got != n {
		t.Errorf("MACComputations advanced by %d, want %d (one per read)", got, n)
	}
	if w := m.Module().Writes(); w != w0 {
		t.Errorf("%d device writes, want none", w-w0)
	}
}

// Once the scoreboard condemns a chip, the §IV-A steady state — that
// chip's slice rebuilt from parity, one MAC against the cached counter,
// nothing to write back — is served under the shared lock. Chip 8
// covers the MAC-chip rebuild; lines 3 and 11 keep their parity slot on
// chip 3, which rebuilds that slot through ParityP first.
func TestFastReadDegradedServesPreemptive(t *testing.T) {
	warm := make([]uint64, degradedLines)
	for k := range warm {
		warm[k] = uint64(k)
	}
	for _, tc := range []struct {
		name  string
		chip  int
		lines []uint64
	}{
		{"chip3", 3, warm},
		{"chip8", dimm.ECCChip, warm},
		{"chip3/parity-slot-on-chip", 3, []uint64{3, 11}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, _ := condemnedMemory(t, tc.chip)
			requireShared(t, a, tc.lines)
		})
	}
}

// A transient on the condemned chip leaves the stored cells differing
// from the verified candidate: the read escalates `degraded`, the
// exclusive path writes the fix back, and the next read is shared.
func TestFastReadDegradedTransientEscalates(t *testing.T) {
	const line = 5
	for _, chip := range []int{3, dimm.ECCChip} {
		t.Run(fmt.Sprintf("chip%d", chip), func(t *testing.T) {
			a, m := condemnedMemory(t, chip)
			addr := m.Layout().DataAddr(line)
			want, _ := m.Module().PeekLine(addr)
			if err := m.InjectTransient(addr, chip, [dimm.SliceSize]byte{0x0F}); err != nil {
				t.Fatal(err)
			}
			s0, deg0 := m.Stats(), m.escalations[telemetry.EscDegraded].Load()
			got, info := mustRead(t, a, line)
			if !bytes.Equal(got, fillLine(line)) || !info.Preemptive {
				t.Fatalf("transient read: right bytes %v, preemptive %v", bytes.Equal(got, fillLine(line)), info.Preemptive)
			}
			if got := m.Stats().ReadEscalations - s0.ReadEscalations; got != 1 {
				t.Fatalf("ReadEscalations advanced by %d, want 1", got)
			}
			if got := m.escalations[telemetry.EscDegraded].Load() - deg0; got != 1 {
				t.Fatalf("degraded escalations advanced by %d, want 1", got)
			}
			if stored, _ := m.Module().PeekLine(addr); stored != want {
				t.Fatal("the exclusive path did not write the pre-emptive fix back")
			}
			requireShared(t, a, []uint64{line})
		})
	}
}

// ReadBatchInto takes the same rung in its shared phase: the steady state
// is served pre-emptively without escalation, and a transient on the
// condemned chip sends just that line to the exclusive phase.
func TestReadBatchDegradedServesPreemptive(t *testing.T) {
	const line = 5
	for _, chip := range []int{3, dimm.ECCChip} {
		t.Run(fmt.Sprintf("chip%d", chip), func(t *testing.T) {
			a, m := condemnedMemory(t, chip)
			lines := make([]uint64, degradedLines)
			for k := range lines {
				lines[k] = uint64(k)
			}
			dst := make([]byte, len(lines)*LineSize)
			infos := make([]ReadInfo, len(lines))
			batch := func(wantEsc uint64) {
				t.Helper()
				s0, w0 := m.Stats(), m.Module().Writes()
				if err := a.ReadBatchInto(lines, dst, infos); err != nil {
					t.Fatal(err)
				}
				s1 := m.Stats()
				for k, i := range lines {
					if !bytes.Equal(dst[k*LineSize:(k+1)*LineSize], fillLine(byte(i))) || !infos[k].Preemptive {
						t.Fatalf("line %d: wrong bytes or not pre-emptive", i)
					}
				}
				if s1.FastReads != s0.FastReads {
					t.Errorf("FastReads advanced by %d, want 0", s1.FastReads-s0.FastReads)
				}
				if got := s1.PreemptiveFixes - s0.PreemptiveFixes; got != uint64(len(lines)) {
					t.Errorf("PreemptiveFixes advanced by %d, want %d", got, len(lines))
				}
				if got := s1.ReadEscalations - s0.ReadEscalations; got != wantEsc {
					t.Errorf("ReadEscalations advanced by %d, want %d", got, wantEsc)
				}
				if w := m.Module().Writes() - w0; w != wantEsc {
					t.Errorf("%d device writes, want %d", w, wantEsc)
				}
			}
			batch(0)
			addr := m.Layout().DataAddr(line)
			want, _ := m.Module().PeekLine(addr)
			if err := m.InjectTransient(addr, chip, [dimm.SliceSize]byte{0x0F}); err != nil {
				t.Fatal(err)
			}
			batch(1)
			if stored, _ := m.Module().PeekLine(addr); stored != want {
				t.Fatal("the exclusive phase did not write the pre-emptive fix back")
			}
			batch(0)
		})
	}
}

// The batched read's optimistic phase must serve warm clean lines
// without the exclusive lock and agree byte-for-byte with Read.
func TestReadBatchFastPath(t *testing.T) {
	a, err := NewArray(Config{DataLines: 256, MetadataCache: 256})
	if err != nil {
		t.Fatal(err)
	}
	m := a.ranks[0]
	lines := make([]uint64, 32)
	src := make([]byte, len(lines)*LineSize)
	for k := range lines {
		lines[k] = uint64(k * 7)
		copy(src[k*LineSize:], fillLine(byte(k)))
	}
	if err := a.WriteBatch(lines, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	infos := make([]ReadInfo, len(lines))
	s0 := m.Stats()
	if err := a.ReadBatchInto(lines, dst, infos); err != nil {
		t.Fatal(err)
	}
	s1 := m.Stats()
	if got := s1.FastReads - s0.FastReads; got != uint64(len(lines)) {
		t.Fatalf("batch served %d lines fast, want %d", got, len(lines))
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("batched fast read returned wrong data")
	}
	// Cross-check against the single-line path.
	for k, i := range lines {
		got, _ := mustRead(t, a, i)
		if !bytes.Equal(got, dst[k*LineSize:(k+1)*LineSize]) {
			t.Fatalf("line %d: batch and single read disagree", i)
		}
	}
}

// Every mutator that changes a line's decrypt-relevant state must bump
// its generation slot, so an optimistic reader mid-flight can tell
// mutator interference from genuine corruption.
func TestGenerationBumps(t *testing.T) {
	a, m := newMemory(t, 64)
	if err := a.Write(5, fillLine(1)); err != nil {
		t.Fatal(err)
	}
	g0 := m.genSlot(5).Load()
	if err := a.Write(5, fillLine(2)); err != nil {
		t.Fatal(err)
	}
	if m.genSlot(5).Load() == g0 {
		t.Fatal("write did not bump the line generation")
	}
	// Correction (exclusive path) bumps every slot: the corrected path
	// state is shared by many lines.
	if err := m.InjectTransient(m.Layout().DataAddr(5), 1, [dimm.SliceSize]byte{0x01}); err != nil {
		t.Fatal(err)
	}
	g1 := m.genSlot(63).Load()
	buf := make([]byte, LineSize)
	if _, err := a.Read(5, buf); err != nil {
		t.Fatal(err)
	}
	if m.genSlot(63).Load() == g1 {
		t.Fatal("correction did not bump generations globally")
	}
}

// Fast-path activity must reach the telemetry registry: per-rank fast
// read totals and per-reason escalation counters.
func TestFastReadTelemetry(t *testing.T) {
	reg := telemetry.New()
	a, m := newInstrumentedMemory(t, 64, reg)
	if err := a.Write(9, fillLine(0x77)); err != nil {
		t.Fatal(err)
	}
	mustRead(t, a, 9) // fast
	if err := m.FlushNodeCache(); err != nil {
		t.Fatal(err)
	}
	mustRead(t, a, 9) // cache-miss escalation

	rk := reg.Snapshot().Ranks[0]
	stats := m.Stats()
	if rk.FastReads != stats.FastReads {
		t.Errorf("telemetry fast reads = %d, stats.FastReads = %d", rk.FastReads, stats.FastReads)
	}
	if rk.FastReads == 0 {
		t.Error("no fast reads recorded")
	}
	if rk.Escalations[telemetry.EscCacheMiss] == 0 {
		t.Error("no cache-miss escalation recorded")
	}
	var telEsc uint64
	for _, n := range rk.Escalations {
		telEsc += n
	}
	if telEsc != stats.ReadEscalations {
		t.Errorf("telemetry escalations = %d, stats.ReadEscalations = %d", telEsc, stats.ReadEscalations)
	}
}

// TestOptimisticReadRace is the reader-heavy concurrency surface: N
// optimistic readers race one writer, a metadata flusher and a patrol
// scrubber on a single rank, with occasional single-chip transients
// thrown in for mismatch/retry traffic. Readers assert that no stale
// decrypt ever escapes: every successfully served line decodes to its
// own index and a version that never regresses below one the writer
// already committed and the reader already observed. Run under -race
// this also proves the RLock snapshot discipline has no data races.
func TestOptimisticReadRace(t *testing.T) {
	if m := runOptimisticReadRace(t, -1); m.Stats().FastReads == 0 {
		t.Error("race run never took the fast path")
	}
}

// TestOptimisticReadRaceDegraded is the same surface with one chip dead
// and condemned, so readers take the shared-lock pre-emptive rung, and
// with every transient aimed at the condemned chip, so some of them
// escalate `degraded` and race the exclusive store-back.
func TestOptimisticReadRaceDegraded(t *testing.T) {
	const dead = 3
	m := runOptimisticReadRace(t, dead)
	if m.preemptReads.Load() == 0 {
		t.Error("race run never served a pre-emptive read under the shared lock")
	}
	if n := m.Stats().FastReads; n != 0 {
		t.Errorf("FastReads = %d with a condemned chip, want 0", n)
	}
	if m.KnownBadChip() != dead {
		t.Errorf("condemned chip %d at the end, want %d", m.KnownBadChip(), dead)
	}
}

// runOptimisticReadRace runs the race on a healthy rank (dead < 0) or
// with chip dead failed and condemned before the race starts.
func runOptimisticReadRace(t *testing.T, dead int) *Memory {
	const (
		dataLines = 256
		readers   = 4
		runFor    = 500 * time.Millisecond
	)
	// On a healthy rank FaultThreshold is raised so the chaos goroutine's
	// steady drip of corrections never condemns a chip. With a dead chip
	// the default threshold condemns it, and every later correction is
	// attributed to it too.
	cfg := Config{DataLines: dataLines, MetadataCache: 512, FaultThreshold: 1 << 30}
	if dead >= 0 {
		cfg.FaultThreshold = 0
	}
	a, err := NewArray(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := a.ranks[0]
	// A write whose parity slot sits on the dead chip degrades its parity
	// group until RepairChip (DESIGN §10 item 4), so with a dead chip the
	// writer skips those lines; readers read every line.
	writable := func(i uint64) bool {
		_, slot := m.Layout().ParityAddr(i)
		return dead < 0 || slot != dead
	}

	// Payload encodes (line index, version) so a reader can detect both
	// cross-line mixups and rollback. committed[i] is the version the
	// writer has durably published for line i; a reader may observe a
	// newer version mid-write, but never an older one than it has
	// already seen.
	var committed [dataLines]atomic.Uint64
	mkLine := func(i, ver uint64) []byte {
		b := make([]byte, LineSize)
		binary.LittleEndian.PutUint64(b[0:], i)
		binary.LittleEndian.PutUint64(b[8:], ver)
		for k := 16; k < LineSize; k++ {
			b[k] = byte(i) ^ byte(ver)
		}
		return b
	}
	checkLine := func(t *testing.T, i uint64, b []byte, lastSeen []uint64) {
		gotLine := binary.LittleEndian.Uint64(b[0:])
		ver := binary.LittleEndian.Uint64(b[8:])
		if gotLine != i {
			t.Errorf("line %d decoded as line %d: cross-line decrypt", i, gotLine)
			return
		}
		for k := 16; k < LineSize; k++ {
			if b[k] != byte(i)^byte(ver) {
				t.Errorf("line %d: torn payload at byte %d", i, k)
				return
			}
		}
		if ver < lastSeen[i] {
			t.Errorf("line %d: version regressed %d -> %d: stale decrypt escaped", i, lastSeen[i], ver)
			return
		}
		lastSeen[i] = ver
	}

	for i := uint64(0); i < dataLines; i++ {
		if err := a.Write(i, mkLine(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if dead >= 0 {
		if _, err := m.InjectPermanent(dead, 0, m.Module().Lines()-1, [dimm.SliceSize]byte{0xA5}); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, LineSize)
		for i := uint64(0); m.KnownBadChip() < 0 && i < dataLines; i++ {
			if _, err := a.Read(i, buf); err != nil {
				t.Fatalf("condemning read %d: %v", i, err)
			}
		}
		if m.KnownBadChip() != dead {
			t.Fatalf("condemned chip %d, want %d", m.KnownBadChip(), dead)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writer: walks lines, bumping each line's version.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ver uint64
		for i := uint64(0); ; i = (i + 1) % dataLines {
			select {
			case <-stop:
				return
			default:
			}
			if i == 0 {
				ver++
			}
			if !writable(i) {
				continue
			}
			if err := a.Write(i, mkLine(i, ver)); err != nil {
				t.Errorf("writer: line %d: %v", i, err)
				return
			}
			committed[i].Store(ver)
		}
	}()

	// Flusher: seals dirty metadata while readers fly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.flush(); err != nil {
				t.Errorf("flusher: %v", err)
				return
			}
		}
	}()

	// Patrol scrubber: resumable sweeps across the rank.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var next uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, n, err := m.scrubFrom(context.Background(), next)
			if err != nil {
				t.Errorf("scrubber: %v", err)
				return
			}
			next = n
		}
	}()

	// Chaos: occasional single-chip (correctable) transients, so
	// optimistic verifies fail and the escalation/retry machinery runs.
	// The chip is a pure function of the line, so repeated injections on
	// one line pile onto ONE chip and stay within the single-chip
	// correction budget — never a spurious uncorrectable. With a dead
	// chip every transient lands on it, the one chip already lost.
	wg.Add(1)
	go func() {
		defer wg.Done()
		x := uint64(0x9E3779B97F4A7C15)
		for {
			select {
			case <-stop:
				return
			default:
			}
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			i := x % dataLines
			chip := int(i) % dimm.Chips
			if dead >= 0 {
				chip = dead
			}
			if err := m.InjectTransient(m.Layout().DataAddr(i), chip, [dimm.SliceSize]byte{byte(x) | 1}); err != nil {
				t.Errorf("chaos: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Readers: mix of single-line Read and ReadBatchInto, each keeping
	// a per-goroutine floor of observed versions.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastSeen := make([]uint64, dataLines)
			buf := make([]byte, LineSize)
			batch := make([]uint64, 8)
			bbuf := make([]byte, len(batch)*LineSize)
			infos := make([]ReadInfo, len(batch))
			x := uint64(r)*0x9E3779B97F4A7C15 + 1
			for {
				select {
				case <-stop:
					return
				default:
				}
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				i := x % dataLines
				// Seed the floor with the writer's committed version
				// before the read starts: anything older is stale.
				floor := committed[i].Load()
				if lastSeen[i] < floor {
					lastSeen[i] = floor
				}
				if x&7 == 0 {
					for k := range batch {
						batch[k] = (i + uint64(k)) % dataLines
					}
					if err := a.ReadBatchInto(batch, bbuf, infos); err != nil {
						t.Errorf("reader %d: batch at %d: %v", r, i, err)
						return
					}
					for k, li := range batch {
						checkLine(t, li, bbuf[k*LineSize:(k+1)*LineSize], lastSeen)
					}
					continue
				}
				if _, err := a.Read(i, buf); err != nil {
					t.Errorf("reader %d: line %d: %v", r, i, err)
					return
				}
				checkLine(t, i, buf, lastSeen)
			}
		}(r)
	}

	time.Sleep(runFor)
	close(stop)
	wg.Wait()

	s := m.Stats()
	t.Logf("fast=%d preemptive=%d escalations=%d genRetries=%d corrections=%d",
		s.FastReads, s.PreemptiveFixes, s.ReadEscalations, s.GenRetries, s.CorrectionEvents)
	return m
}
