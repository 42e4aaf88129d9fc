package core

import (
	"testing"

	"synergy/internal/dimm"
)

func TestErrorLogRecordsCorrections(t *testing.T) {
	a, m := newMemory(t, 64)
	a.Write(3, fillLine(1))
	m.Module().InjectTransient(m.Layout().DataAddr(3), 2, [8]byte{0x11})
	mustRead(t, a, 3)

	log := m.ErrorLog()
	if log.Total() != 1 {
		t.Fatalf("log total = %d, want 1", log.Total())
	}
	evs := log.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	e := evs[0]
	if e.Chip != 2 || e.Region != RegionData || e.Line != m.Layout().DataAddr(3) {
		t.Fatalf("event = %+v", e)
	}
	if log.ByChip()[2] != 1 {
		t.Fatal("per-chip count missing")
	}
}

func TestErrorLogRecordsParityPUse(t *testing.T) {
	a, m := newMemory(t, 64)
	const line = 26
	a.Write(line, fillLine(7))
	pAddr, slot := m.Layout().ParityAddr(line)
	m.Module().InjectTransient(m.Layout().DataAddr(line), slot, [8]byte{0x5A})
	m.Module().InjectTransient(pAddr, slot, [8]byte{0xC3})
	mustRead(t, a, line)
	evs := m.ErrorLog().Events()
	if len(evs) != 1 || !evs[0].UsedParityP {
		t.Fatalf("expected a ParityP-marked event, got %+v", evs)
	}
}

func TestErrorLogRingBound(t *testing.T) {
	a, err := NewArray(Config{DataLines: 64, ErrorLogCapacity: 4, FaultThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	m := a.ranks[0]
	for k := 0; k < 10; k++ {
		line := uint64(k % 32)
		a.Write(line, fillLine(byte(k)))
		m.Module().InjectTransient(m.Layout().DataAddr(line), 1, [8]byte{1})
		mustRead(t, a, line)
	}
	log := m.ErrorLog()
	if log.Total() != 10 {
		t.Fatalf("total = %d, want 10", log.Total())
	}
	evs := log.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want capacity 4", len(evs))
	}
	// Oldest-first ordering.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq < evs[i-1].Seq {
			t.Fatal("events not oldest-first")
		}
	}
	// Eviction order: the ring keeps the *newest* capacity events, so
	// the window must be exactly corrections 6..9 (the first six were
	// evicted), still counted by Total and ByChip.
	for i, e := range evs {
		if want := m.Layout().DataAddr(uint64(6 + i)); e.Line != want {
			t.Fatalf("retained[%d].Line = %#x, want %#x (newest-4 window)", i, e.Line, want)
		}
	}
	if log.ByChip()[1] != 10 {
		t.Fatalf("ByChip[1] = %d, want 10 (evictions must not uncount)", log.ByChip()[1])
	}
	if log.Capacity() != 4 {
		t.Fatalf("Capacity = %d, want 4", log.Capacity())
	}
	if log.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6 (10 corrections through a 4-slot ring)", log.Dropped())
	}
	if got := uint64(len(evs)); got != log.Total()-log.Dropped() {
		t.Fatalf("len(Events) = %d, want Total-Dropped = %d", got, log.Total()-log.Dropped())
	}
}

// Dropped stays zero while the ring has room.
func TestErrorLogDroppedZeroUntilFull(t *testing.T) {
	a, err := NewArray(Config{DataLines: 64, ErrorLogCapacity: 8, FaultThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	m := a.ranks[0]
	for k := 0; k < 8; k++ {
		line := uint64(k)
		a.Write(line, fillLine(byte(k)))
		m.Module().InjectTransient(m.Layout().DataAddr(line), 1, [8]byte{1})
		mustRead(t, a, line)
	}
	log := m.ErrorLog()
	if log.Dropped() != 0 {
		t.Fatalf("Dropped = %d before any eviction, want 0", log.Dropped())
	}
	if log.Capacity() != 8 || log.Total() != 8 {
		t.Fatalf("Capacity/Total = %d/%d, want 8/8", log.Capacity(), log.Total())
	}
}

// Analyze with accesses == 0 is well-defined: the rate is reported as 0
// and the assessment (which never depends on the rate) is unchanged.
func TestAnalyzeZeroAccesses(t *testing.T) {
	a, m := newMemory(t, 64)
	for k := 0; k < 6; k++ {
		line := uint64(k)
		a.Write(line, fillLine(byte(k)))
		m.Module().InjectTransient(m.Layout().DataAddr(line), 3, [8]byte{0x40})
		mustRead(t, a, line)
	}
	withAccesses := m.ErrorLog().Analyze(m.Stats().Reads + m.Stats().Writes)
	zero := m.ErrorLog().Analyze(0)
	if zero.RatePerMAccess != 0 {
		t.Fatalf("RatePerMAccess = %v with zero accesses", zero.RatePerMAccess)
	}
	if zero.Assessment != withAccesses.Assessment ||
		zero.DominantChip != withAccesses.DominantChip ||
		zero.DominantShare != withAccesses.DominantShare {
		t.Fatalf("assessment shifted with the access baseline: %+v vs %+v", zero, withAccesses)
	}
}

func TestAnalyzeQuiet(t *testing.T) {
	_, m := newMemory(t, 64)
	a := m.ErrorLog().Analyze(100)
	if a.Assessment != AssessmentQuiet || a.DominantChip != -1 {
		t.Fatalf("empty log analysis = %+v", a)
	}
}

// A permanent single-chip fault produces a natural-fault assessment.
func TestAnalyzeNaturalFault(t *testing.T) {
	arr, err := NewArray(Config{DataLines: 64, FaultThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	m := arr.ranks[0]
	for i := uint64(0); i < 32; i++ {
		arr.Write(i, fillLine(byte(i)))
	}
	m.Module().InjectPermanent(5, 0, m.Module().Lines()-1, [8]byte{0x42})
	for i := uint64(0); i < 32; i++ {
		if i%8 == 5 {
			continue // parity-slot residual window; see DESIGN.md §7.1
		}
		mustRead(t, arr, i)
	}
	a := m.ErrorLog().Analyze(m.Stats().Reads + m.Stats().Writes)
	if a.Assessment != AssessmentNaturalFault {
		t.Fatalf("assessment = %v, want natural-fault (%+v)", a.Assessment, a)
	}
	if a.DominantChip != 5 || a.DominantShare < 0.9 {
		t.Fatalf("dominant chip %d share %.2f", a.DominantChip, a.DominantShare)
	}
	if a.RatePerMAccess == 0 {
		t.Fatal("rate not computed")
	}
}

// An adversary planting correctable flips across many chips triggers
// the DoS assessment (§IV-B).
func TestAnalyzeSuspectedDoS(t *testing.T) {
	arr, m := newMemory(t, 64)
	for i := uint64(0); i < 16; i++ {
		arr.Write(i, fillLine(byte(i)))
	}
	for k := 0; k < 12; k++ {
		line := uint64(k % 16)
		chip := k % dimm.Chips // errors spread across all chips
		m.Module().InjectTransient(m.Layout().DataAddr(line), chip, [8]byte{0x80})
		mustRead(t, arr, line)
	}
	a := m.ErrorLog().Analyze(m.Stats().Reads + m.Stats().Writes)
	if a.Assessment != AssessmentSuspectedDoS {
		t.Fatalf("assessment = %v, want suspected-dos (%+v)", a.Assessment, a)
	}
}

// Analyze judges lifetime per-chip counts, not the retained window: a
// capacity-2 ring that has evicted the corrections on chips 0 and 1,
// and retains only chip 2's, still counts three chips.
func TestAnalyzeCountsEvictedCorrections(t *testing.T) {
	log := newErrorLog(2)
	for seq, chip := range []int{0, 1, 2, 2} {
		log.add(ErrorEvent{Seq: uint64(seq), Region: RegionData, Chip: chip})
	}
	if log.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", log.Dropped())
	}
	for _, e := range log.Events() {
		if e.Chip != 2 {
			t.Fatalf("retained event on chip %d, want only chip 2's", e.Chip)
		}
	}
	if a := log.Analyze(100); a.Assessment != AssessmentSuspectedDoS {
		t.Fatalf("assessment = %v, want suspected-dos from lifetime counts (%+v)", a.Assessment, a)
	}
}

func TestAssessmentString(t *testing.T) {
	for _, tc := range []struct {
		a    Assessment
		want string
	}{{AssessmentQuiet, "quiet"}, {AssessmentNaturalFault, "natural-fault"}, {AssessmentSuspectedDoS, "suspected-dos"}} {
		if tc.a.String() != tc.want {
			t.Errorf("%d.String() = %q", tc.a, tc.a.String())
		}
	}
	if Assessment(9).String() == "" {
		t.Error("unknown assessment should stringify")
	}
}
