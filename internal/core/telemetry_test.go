package core

import (
	"context"
	"errors"
	"testing"

	"synergy/internal/dimm"
	"synergy/internal/telemetry"
)

func newInstrumentedMemory(tb testing.TB, lines uint64, reg *telemetry.Registry) (*Array, *Memory) {
	tb.Helper()
	a, err := NewArray(Config{DataLines: lines, Telemetry: reg})
	if err != nil {
		tb.Fatal(err)
	}
	return a, a.ranks[0]
}

// The steady-state read must stay allocation-free with telemetry
// enabled — including on sampled iterations, so the registry is forced
// to time every read (SampleEvery(1)) and the guard still demands
// zero.
func TestReadHotPathAllocs(t *testing.T) {
	reg := telemetry.New(telemetry.SampleEvery(1))
	a, _ := newInstrumentedMemory(t, 1024, reg)
	buf := make([]byte, LineSize)
	if err := a.Write(42, fillLine(0x11)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read(42, buf); err != nil { // warm the node cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := a.Read(42, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("instrumented read allocates %.1f times per op, want 0", allocs)
	}

	// Attaching a flight recorder must not change the untraced path:
	// spans are nil, the recorder is only consulted by the server.
	reg.SetFlight(telemetry.NewFlightRecorder(telemetry.FlightConfig{}))
	allocs = testing.AllocsPerRun(200, func() {
		if _, err := a.Read(42, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("read with flight recorder attached allocates %.1f times per op, want 0", allocs)
	}
}

// A traced read mirrors its stage marks into the span as events and
// records escalations; the untraced form (nil span) is byte-identical
// to Read.
func TestReadTracedStageEvents(t *testing.T) {
	reg := telemetry.New()
	a, err := NewArray(Config{DataLines: 1024, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, LineSize)
	if err := a.Write(42, fillLine(0x11)); err != nil {
		t.Fatal(err)
	}

	sp := telemetry.BeginSpan(telemetry.OpRPCRead, telemetry.TraceID{}, telemetry.SpanID{})
	sp.Deep = true
	if _, err := a.ReadTraced(42, buf, sp); err != nil {
		t.Fatal(err)
	}
	events := sp.Events()
	if len(events) == 0 {
		t.Fatal("traced read recorded no span events")
	}
	stages := map[telemetry.Stage]bool{}
	for _, e := range events {
		if e.Kind != telemetry.EventStage {
			continue
		}
		stages[e.Stage] = true
		if e.Dur <= 0 {
			t.Errorf("stage %v has non-positive duration %v", e.Stage, e.Dur)
		}
	}
	// Whichever path served the read, the pipeline always fetches the
	// counter and generates the OTP.
	if !stages[telemetry.StageCounterFetch] || !stages[telemetry.StageOTP] {
		t.Fatalf("traced read stages = %v, want counter_fetch and otp", stages)
	}

	// Nil span → identical to the plain read, no events anywhere.
	if _, err := a.ReadTraced(42, buf, nil); err != nil {
		t.Fatal(err)
	}

	// A write is traced symmetrically.
	wsp := telemetry.BeginSpan(telemetry.OpRPCWrite, telemetry.TraceID{}, telemetry.SpanID{})
	wsp.Deep = true
	if err := a.WriteTraced(42, fillLine(0x22), wsp); err != nil {
		t.Fatal(err)
	}
	if len(wsp.Events()) == 0 {
		t.Fatal("traced write recorded no span events")
	}
}

// Corrections, poisons, scrub passes and repairs must reach the
// registry with totals matching the engine's own Stats — the exporter
// and the paper-facing counters must never disagree.
func TestTelemetryTracksEngineEvents(t *testing.T) {
	reg := telemetry.New()
	a, m := newInstrumentedMemory(t, 256, reg)
	buf := make([]byte, LineSize)
	if err := a.Write(7, fillLine(0x33)); err != nil {
		t.Fatal(err)
	}

	// One correctable single-chip fault: the read must log exactly one
	// correction against chip 2.
	var mask [dimm.SliceSize]byte
	mask[0] = 0xFF
	if err := m.InjectTransient(m.layout.DataAddr(7), 2, mask); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read(7, buf); err != nil {
		t.Fatal(err)
	}

	// One uncorrectable (two-chip) fault: the read fails closed and
	// poisons the line; the following write heals it.
	if err := m.InjectTransients(m.layout.DataAddr(9), []ChipFault{
		{Chip: 1, Mask: mask}, {Chip: 5, Mask: mask},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read(9, buf); !errors.Is(err, ErrAttack) {
		t.Fatalf("two-chip read: got %v, want ErrAttack", err)
	}
	if _, err := a.Read(9, buf); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("poisoned read: got %v, want ErrPoisoned", err)
	}
	if err := a.Write(9, fillLine(0x44)); err != nil {
		t.Fatal(err)
	}

	if _, err := a.Scrub(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.RepairChip(0, 2); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	stats := m.Stats()
	if len(s.Ranks) != 1 {
		t.Fatalf("got %d rank snapshots, want 1", len(s.Ranks))
	}
	rk := s.Ranks[0]

	var telCorrections uint64
	for _, n := range rk.Corrections {
		telCorrections += n
	}
	if telCorrections != stats.CorrectionEvents {
		t.Errorf("telemetry corrections = %d, stats.CorrectionEvents = %d", telCorrections, stats.CorrectionEvents)
	}
	if rk.Corrections[2] == 0 {
		t.Error("no correction recorded against chip 2")
	}
	if rk.Poisoned != stats.LinesPoisoned {
		t.Errorf("telemetry poisoned = %d, stats.LinesPoisoned = %d", rk.Poisoned, stats.LinesPoisoned)
	}
	if rk.Healed != stats.LinesHealed {
		t.Errorf("telemetry healed = %d, stats.LinesHealed = %d", rk.Healed, stats.LinesHealed)
	}
	if rk.FailClosed != stats.AttacksDeclared+stats.PoisonFastFails {
		t.Errorf("telemetry fail-closed = %d, want AttacksDeclared+PoisonFastFails = %d",
			rk.FailClosed, stats.AttacksDeclared+stats.PoisonFastFails)
	}
	if rk.Repairs != stats.ChipRepairs {
		t.Errorf("telemetry repairs = %d, stats.ChipRepairs = %d", rk.Repairs, stats.ChipRepairs)
	}
	if rk.ScrubPasses != 1 {
		t.Errorf("scrub passes = %d, want 1", rk.ScrubPasses)
	}
	if rk.ScrubScanned != 256 {
		t.Errorf("scrub scanned = %d, want 256", rk.ScrubScanned)
	}
	// OpRead counts every Read call served at the public boundary:
	// 1 corrected read + 2 fail-closed reads + 256 scrub reads.
	// RepairChip's internal sweep bumps stats.Reads but bypasses the
	// public Read, so it is deliberately absent here.
	if got, want := s.Ops[telemetry.OpRead.String()].Count, uint64(1+2+256); got != want {
		t.Errorf("op read count = %d, want %d", got, want)
	}
	if stats.Reads+stats.PoisonFastFails <= s.Ops[telemetry.OpRead.String()].Count {
		t.Errorf("stats.Reads (%d) should exceed op count (sweep reads are engine-internal)", stats.Reads)
	}
	if got := s.Ops[telemetry.OpScrub.String()].Count; got != 1 {
		t.Errorf("op scrub count = %d, want 1", got)
	}
	if got := s.Ops[telemetry.OpRepairChip.String()].Count; got != 1 {
		t.Errorf("op repair count = %d, want 1", got)
	}
	if got := s.Ops[telemetry.OpRead.String()].Errors; got != 2 {
		t.Errorf("op read errors = %d, want 2 (ErrAttack + ErrPoisoned)", got)
	}
}

// A condemned chip must route reads through the §IV-A fast path and
// count them as preemptive fixes, matching stats.PreemptiveFixes — under
// the shared lock too, where they are served op reads but not fast
// reads.
func TestTelemetryCountsPreemptive(t *testing.T) {
	reg := telemetry.New()
	a, err := NewArray(Config{DataLines: 64, FaultThreshold: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	m := a.ranks[0]
	if err := a.Write(3, fillLine(0x55)); err != nil {
		t.Fatal(err)
	}
	var mask [dimm.SliceSize]byte
	mask[0] = 0x01
	if _, err := m.InjectPermanent(4, 0, m.layout.TotalLines-1, mask); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, LineSize)
	for i := 0; i < 10; i++ {
		if _, err := a.Read(3, buf); err != nil {
			t.Fatal(err)
		}
	}
	if m.KnownBadChip() != 4 {
		t.Fatalf("chip 4 not condemned (knownBad=%d)", m.KnownBadChip())
	}
	// A batch whose lines share line 3's cached counter leaf is served in
	// its shared phase as well.
	if _, err := a.ReadBatch([]uint64{3, 5}, make([]byte, 2*LineSize)); err != nil {
		t.Fatal(err)
	}
	s, stats := reg.Snapshot(), m.Stats()
	if m.preemptReads.Load() == 0 {
		t.Fatal("no pre-emptive read was served under the shared lock")
	}
	if got, want := s.Ranks[0].Preemptive, stats.PreemptiveFixes; got != want || got == 0 {
		t.Errorf("telemetry preemptive = %d, stats.PreemptiveFixes = %d (want equal, nonzero)", got, want)
	}
	if got := s.Ranks[0].FastReads; got != 0 || stats.FastReads != 0 {
		t.Errorf("telemetry fast reads = %d, stats.FastReads = %d; want 0 with a condemned chip", got, stats.FastReads)
	}
	if got, want := s.Ops[telemetry.OpRead.String()].Count, stats.Reads; got != want || got != 12 {
		t.Errorf("op read count = %d, stats.Reads = %d; want both 12", got, want)
	}
}

// Array ranks must label their events with their own rank index.
func TestArrayTelemetryRankLabels(t *testing.T) {
	reg := telemetry.New()
	a, err := NewArray(Config{DataLines: 64, Ranks: 4, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Global line 2 lands on rank 2; fault and read it there.
	var mask [dimm.SliceSize]byte
	mask[0] = 0xFF
	m := a.Rank(2)
	if err := a.Write(2, fillLine(0x66)); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectTransient(m.Layout().DataAddr(0), 3, mask); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, LineSize)
	if _, err := a.Read(2, buf); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if len(s.Ranks) != 4 {
		t.Fatalf("got %d rank snapshots, want 4 (pre-created at New)", len(s.Ranks))
	}
	if s.Ranks[2].Corrections[3] != 1 {
		t.Errorf("rank 2 chip 3 corrections = %d, want 1", s.Ranks[2].Corrections[3])
	}
	for _, r := range []int{0, 1, 3} {
		var total uint64
		for _, n := range s.Ranks[r].Corrections {
			total += n
		}
		if total != 0 {
			t.Errorf("rank %d has %d corrections, want 0", r, total)
		}
	}
}

// rankFamilies projects a rank snapshot onto the families
// TestTelemetryMatchesStats holds to their engine sources.
func rankFamilies(rs telemetry.RankSnapshot) telemetry.RankSnapshot {
	return telemetry.RankSnapshot{
		Corrections:            rs.Corrections,
		Preemptive:             rs.Preemptive,
		ReconstructionAttempts: rs.ReconstructionAttempts,
		Poisoned:               rs.Poisoned,
		Healed:                 rs.Healed,
		MetaCacheHits:          rs.MetaCacheHits,
		MetaCacheMisses:        rs.MetaCacheMisses,
		MetaWritebacks:         rs.MetaWritebacks,
		MetaDirty:              rs.MetaDirty,
		FastReads:              rs.FastReads,
		GenRetries:             rs.GenRetries,
		Escalations:            rs.Escalations,
	}
}

// engineFamilies reads the same families from the engine's own
// sources, summed over the memories that share one rank index, and
// returns them with the summed Stats.CorrectionEvents.
func engineFamilies(ms []*Memory) (telemetry.RankSnapshot, uint64) {
	var w telemetry.RankSnapshot
	var corrections uint64
	for _, m := range ms {
		st := m.Stats()
		for c, n := range m.ErrorLog().ByChip() {
			w.Corrections[c] += n
		}
		corrections += st.CorrectionEvents
		w.Preemptive += st.PreemptiveFixes
		w.ReconstructionAttempts += st.ReconstructionAttempts
		w.Poisoned += st.LinesPoisoned
		w.Healed += st.LinesHealed
		w.MetaCacheHits += st.MetaCacheHits
		w.MetaCacheMisses += st.MetaCacheMisses
		w.MetaWritebacks += st.MetaWritebacks
		w.MetaDirty += uint64(m.ncache.dirty)
		w.FastReads += st.FastReads
		w.GenRetries += st.GenRetries
		for k := range w.Escalations {
			w.Escalations[k] += m.escalations[k].Load()
		}
	}
	return w, corrections
}

// TestTelemetryMatchesStats runs op tapes over instrumented engines and,
// after every op, requires each per-rank family on the registry to equal
// its engine source: Stats, the error log's per-chip counts, the
// escalation counters and the metadata cache's dirty count. The ranks
// of every array that share one rank index register under it; their
// counts must sum.
func TestTelemetryMatchesStats(t *testing.T) {
	tapes := []struct {
		name string
		ops  []byte
	}{
		{"diff", diffScript(21, 96)},
		{"dead-data-chip", deadChipScript(22, 5, 63)},
		{"dead-mac-chip", deadChipScript(23, dimm.ECCChip, 63)},
	}
	for _, tape := range tapes {
		t.Run(tape.name+"/memory", func(t *testing.T) {
			reg := telemetry.New()
			a, err := NewArray(Config{DataLines: diffLines, MetadataCache: diffCache, Telemetry: reg})
			if err != nil {
				t.Fatal(err)
			}
			runMatched(t, reg, []*Array{a}, tape.ops)
		})
		t.Run(tape.name+"/two-arrays", func(t *testing.T) {
			reg := telemetry.New()
			arrays := make([]*Array, 2)
			for k := range arrays {
				a, err := NewArray(Config{DataLines: 4 * diffLines, Ranks: 4, MetadataCache: diffCache, Telemetry: reg})
				if err != nil {
					t.Fatal(err)
				}
				arrays[k] = a
			}
			runMatched(t, reg, arrays, tape.ops)
		})
	}
}

// runMatched applies each op of the tape to every rank of every array
// in turn — each rank runs the whole tape over its own lines — and
// checks the registry against the engines after each one. The arrays
// share one geometry, so byRank[r] lists every array's rank r.
func runMatched(t *testing.T, reg *telemetry.Registry, arrays []*Array, ops []byte) {
	t.Helper()
	byRank := make([][]*Memory, arrays[0].Ranks())
	for r := range byRank {
		for _, a := range arrays {
			byRank[r] = append(byRank[r], a.Rank(r))
		}
	}
	for step := 0; step+2 < len(ops); step += 3 {
		for rank := range byRank {
			for _, a := range arrays {
				diffOp(t, a, rank, step/3, ops[step], ops[step+1], ops[step+2])
				s := reg.Snapshot()
				if len(s.Ranks) != len(byRank) {
					t.Fatalf("step %d: %d rank snapshots, want %d", step/3, len(s.Ranks), len(byRank))
				}
				for r := range byRank {
					want, corrections := engineFamilies(byRank[r])
					if got := rankFamilies(s.Ranks[r]); got != want {
						t.Fatalf("step %d (op %d), rank %d:\n registry %+v\n engine   %+v",
							step/3, ops[step]%10, r, got, want)
					}
					var sum uint64
					for _, n := range s.Ranks[r].Corrections {
						sum += n
					}
					if sum != corrections {
						t.Fatalf("step %d, rank %d: corrections by chip sum to %d, CorrectionEvents = %d",
							step/3, r, sum, corrections)
					}
				}
			}
		}
	}
}

// BenchmarkReadHotPathInstrumented is BenchmarkReadHotPath with an
// enabled registry at the default sampling period. The gated overhead
// figure is bench/'s telemetry.read_overhead_ns.
func BenchmarkReadHotPathInstrumented(b *testing.B) {
	reg := telemetry.New()
	a, _ := newInstrumentedMemory(b, 1024, reg)
	buf := make([]byte, LineSize)
	if err := a.Write(42, fillLine(0x11)); err != nil {
		b.Fatal(err)
	}
	if _, err := a.Read(42, buf); err != nil { // warm the node cache
		b.Fatal(err)
	}
	b.SetBytes(LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Read(42, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteHotPathInstrumented is BenchmarkWriteHotPath with an
// enabled registry at the default sampling period; its gated
// counterpart is bench/'s telemetry.write_overhead_ns.
func BenchmarkWriteHotPathInstrumented(b *testing.B) {
	a, lines := hotWrites(b, 2048, telemetry.New())
	line := fillLine(0x22)
	b.SetBytes(LineSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Write(lines[i&63], line); err != nil {
			b.Fatal(err)
		}
	}
}
