package telemetry

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingSink counts correction deliveries.
type countingSink struct {
	BaseSink
	corrections atomic.Uint64
}

func (s *countingSink) OnCorrection(CorrectionEvent) { s.corrections.Add(1) }

// The satellite contract: hammer counters, histograms and sink fan-out
// from GOMAXPROCS goroutines and require snapshot totals to equal the
// deterministic shadow count. Run under -race in CI.
func TestRegistryConcurrentHammer(t *testing.T) {
	r := New(SampleEvery(1))
	sink := &countingSink{}
	r.Attach(sink)
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	const perWorker = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rank := w % 4
			for i := 0; i < perWorker; i++ {
				r.CountOp(OpRead, rank)
				if i%10 == 0 {
					r.CountOpError(OpRead, rank)
				}
				r.ObserveOp(OpRead, rank, time.Duration(i%1000)*time.Nanosecond)
				r.ObserveStage(StageOTP, rank, 100*time.Nanosecond)
				r.EmitCorrection(CorrectionEvent{Rank: rank, Chip: i % NumChips, Region: "data", Line: uint64(i)})
				r.AddTrials(1)
			}
		}(w)
	}
	wg.Wait()

	s := r.Snapshot()
	total := uint64(workers * perWorker)
	read := s.Ops[OpRead.String()]
	if read.Count != total {
		t.Errorf("OpRead count = %d, want %d", read.Count, total)
	}
	if want := uint64(workers * perWorker / 10); read.Errors != want {
		t.Errorf("OpRead errors = %d, want %d", read.Errors, want)
	}
	if read.Latency.Count != total {
		t.Errorf("OpRead latency count = %d, want %d", read.Latency.Count, total)
	}
	if got := s.Stages[StageOTP.String()].Count; got != total {
		t.Errorf("StageOTP count = %d, want %d", got, total)
	}
	if got := s.Ops[OpTrial.String()].Count; got != total {
		t.Errorf("OpTrial count = %d, want %d", got, total)
	}
	if got := sink.corrections.Load(); got != total {
		t.Errorf("corrections delivered = %d, want %d", got, total)
	}
	// Histogram bucket sums must equal the count — no observation may
	// be lost or double-bucketed.
	var bucketSum uint64
	for _, n := range read.Latency.Buckets {
		bucketSum += n
	}
	if bucketSum != read.Latency.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, read.Latency.Count)
	}
}

// opsSource is a rank source reporting only served read and write
// totals, read at scrape time like an engine's.
func opsSource(reads, writes *uint64) RankFill {
	return func(_ *RankSnapshot, ops *[NumOps]uint64) {
		ops[OpRead] += *reads
		ops[OpWrite] += *writes
	}
}

// Rank sources' op totals fold into the op count next to the striped
// counter, summed across sources and read afresh by every snapshot.
func TestRankSourceOpCounts(t *testing.T) {
	r := New()
	r.CountOp(OpRead, 0)
	r.CountOp(OpRead, 1)
	var aReads, aWrites, bReads, bWrites uint64 = 5, 0, 3, 11
	r.RegisterRank(0, opsSource(&aReads, &aWrites))
	r.RegisterRank(1, opsSource(&bReads, &bWrites))
	aReads = 7 // running totals: the source is read at scrape time
	s := r.Snapshot()
	if got := s.Ops["read"].Count; got != 2+7+3 {
		t.Errorf("read count = %d, want 12", got)
	}
	if got := s.Ops["write"].Count; got != 11 {
		t.Errorf("write count = %d, want 11", got)
	}
}

func TestCounterStripes(t *testing.T) {
	var c Counter
	c.Add(3)
	c.AddAt(0, 1)
	c.AddAt(counterShards, 1) // wraps onto stripe 0
	c.AddAt(-1, 1)            // negative hints are safe
	if got := c.Load(); got != 6 {
		t.Fatalf("Load = %d, want 6", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{-5, 0},
		{1, 1}, // [1,2) ns
		{2, 2}, // [2,4) ns
		{3, 2},
		{1024, 11},                               // [1024,2048) ns
		{time.Duration(1) << 62, NumBuckets - 1}, // clamps
	}
	for _, c := range cases {
		if got := bucketOf(c.d); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.d, got, c.bucket)
		}
		h.Observe(c.d)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(cases)) {
		t.Fatalf("count = %d, want %d", s.Count, len(cases))
	}
	if s.Buckets[2] != 2 {
		t.Fatalf("bucket 2 = %d, want 2", s.Buckets[2])
	}
}

func TestHistogramMeanQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(1 * time.Microsecond) // bucket [512ns, 1024ns]... bit length of 1000 is 10 → [512,1024)
	}
	s := h.Snapshot()
	if m := s.Mean(); m != time.Microsecond {
		t.Errorf("mean = %v, want 1µs", m)
	}
	p50 := s.Quantile(0.5)
	if p50 < 256*time.Nanosecond || p50 > 2*time.Microsecond {
		t.Errorf("p50 = %v, want within the microsecond octave", p50)
	}
	if q := s.Quantile(0); q != 0 {
		t.Errorf("q0 = %v, want 0", q)
	}
	if empty := (HistogramSnapshot{}); empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram quantile/mean must be 0")
	}
}

func TestSnapshotSub(t *testing.T) {
	r := New()
	var poisoned, healed uint64
	r.RegisterRank(1, func(rs *RankSnapshot, _ *[NumOps]uint64) {
		rs.Poisoned += poisoned
		rs.Healed += healed
	})
	r.CountOp(OpWrite, 0)
	poisoned++
	prev := r.Snapshot()
	r.CountOp(OpWrite, 0)
	r.CountOp(OpWrite, 1)
	poisoned++
	healed++
	cur := r.Snapshot()

	d := cur.Sub(prev)
	if got := d.Ops[OpWrite.String()].Count; got != 2 {
		t.Errorf("write delta = %d, want 2", got)
	}
	var rk *RankSnapshot
	for i := range d.Ranks {
		if d.Ranks[i].Rank == 1 {
			rk = &d.Ranks[i]
		}
	}
	if rk == nil {
		t.Fatal("rank 1 missing from delta")
	}
	if rk.Poisoned != 1 || rk.Healed != 1 {
		t.Errorf("rank delta poisoned=%d healed=%d, want 1/1", rk.Poisoned, rk.Healed)
	}
	// Regressed counters clamp to zero rather than wrapping.
	if got := prev.Sub(cur).Ops[OpWrite.String()].Count; got != 0 {
		t.Errorf("reverse delta = %d, want clamped 0", got)
	}
}

// recordingSink captures events for assertion.
type recordingSink struct {
	BaseSink
	mu          sync.Mutex
	corrections []CorrectionEvent
	poisons     []PoisonEvent
	repairs     []RepairEvent
	scrubs      []ScrubEvent
	recons      []ReconstructionEvent
}

func (s *recordingSink) OnCorrection(e CorrectionEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.corrections = append(s.corrections, e)
}
func (s *recordingSink) OnPoison(e PoisonEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.poisons = append(s.poisons, e)
}
func (s *recordingSink) OnRepair(e RepairEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.repairs = append(s.repairs, e)
}
func (s *recordingSink) OnScrubPass(e ScrubEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.scrubs = append(s.scrubs, e)
}
func (s *recordingSink) OnReconstruction(e ReconstructionEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recons = append(s.recons, e)
}

func TestSinkDelivery(t *testing.T) {
	r := New()
	sink := &recordingSink{}
	r.Attach(sink)
	r.EmitCorrection(CorrectionEvent{Rank: 0, Chip: 3, Region: "data", Line: 9})
	r.EmitReconstruction(ReconstructionEvent{Rank: 0, Line: 9, Region: "data", Attempts: 4, Success: true})
	r.EmitPoison(PoisonEvent{Rank: 0, Line: 9})
	r.EmitScrubPass(ScrubEvent{Rank: 0, Scanned: 64})
	r.EmitRepair(RepairEvent{Rank: 0, Chip: 3})

	if len(sink.corrections) != 1 || sink.corrections[0].Chip != 3 {
		t.Errorf("corrections = %+v", sink.corrections)
	}
	if len(sink.recons) != 1 || sink.recons[0].Attempts != 4 {
		t.Errorf("reconstructions = %+v", sink.recons)
	}
	if len(sink.poisons) != 1 || len(sink.scrubs) != 1 || len(sink.repairs) != 1 {
		t.Errorf("poisons/scrubs/repairs = %d/%d/%d, want 1/1/1",
			len(sink.poisons), len(sink.scrubs), len(sink.repairs))
	}
	// Emits are sink fan-out only: per-rank counts come from registered
	// rank sources, so no rank appears.
	if ranks := r.Snapshot().Ranks; len(ranks) != 0 {
		t.Errorf("emits created rank counters: %+v", ranks)
	}
}

// Every exported method must be a safe no-op on the Disabled (nil)
// registry — instrumented code holds a *Registry unconditionally.
func TestDisabledRegistry(t *testing.T) {
	r := Disabled
	if r.Enabled() {
		t.Fatal("Disabled.Enabled() = true")
	}
	r.CountOp(OpRead, 0)
	r.CountOpError(OpRead, 0)
	r.ObserveOp(OpRead, 0, time.Second)
	r.ObserveStage(StageOTP, 0, time.Second)
	r.AddTrials(5)
	r.RegisterRank(2, func(*RankSnapshot, *[NumOps]uint64) { t.Fatal("Disabled called a rank source") })
	r.Attach(&recordingSink{})
	r.EmitCorrection(CorrectionEvent{})
	r.EmitReconstruction(ReconstructionEvent{})
	r.EmitPoison(PoisonEvent{})
	r.EmitScrubPass(ScrubEvent{})
	r.EmitRepair(RepairEvent{})
	st := r.StartStages(0)
	if st.Active() {
		t.Fatal("Disabled stage timer active")
	}
	st.Mark(StageOTP)
	st.Finish(OpRead)
	s := r.Snapshot()
	if len(s.Ranks) != 0 {
		t.Fatal("Disabled snapshot has ranks")
	}
	if got := r.SampleMask(); got != ^uint64(0) {
		t.Fatalf("Disabled sample mask = %x", got)
	}
}

func TestSampleEveryRounding(t *testing.T) {
	if m := New(SampleEvery(1)).SampleMask(); m != 0 {
		t.Errorf("SampleEvery(1) mask = %d, want 0", m)
	}
	if m := New(SampleEvery(48)).SampleMask(); m != 63 {
		t.Errorf("SampleEvery(48) mask = %d, want 63 (rounded up to 64)", m)
	}
	if m := New().SampleMask(); m != DefaultSampleEvery-1 {
		t.Errorf("default mask = %d, want %d", m, DefaultSampleEvery-1)
	}
}

// A snapshot lists every rank up to the highest registered one, sums
// sources that share a rank index, ignores negative ranks, and tolerates
// registration racing scrapes.
func TestRankGrowth(t *testing.T) {
	r := New()
	hits := func(n uint64) RankFill {
		return func(rs *RankSnapshot, _ *[NumOps]uint64) { rs.MetaCacheHits += n }
	}
	r.RegisterRank(2, hits(3))
	r.RegisterRank(2, hits(4))
	r.RegisterRank(-1, hits(100))
	s := r.Snapshot()
	if len(s.Ranks) != 3 {
		t.Fatalf("rank count = %d, want 3", len(s.Ranks))
	}
	for i, rk := range s.Ranks {
		if rk.Rank != i {
			t.Errorf("Ranks[%d].Rank = %d", i, rk.Rank)
		}
	}
	if got := s.Ranks[2].MetaCacheHits; got != 7 {
		t.Errorf("rank 2 hits = %d, want 3+4", got)
	}
	if got := s.Ranks[0].MetaCacheHits; got != 0 {
		t.Errorf("rank 0 hits = %d, want 0", got)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				r.RegisterRank(i%7, hits(1))
				r.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	s = r.Snapshot()
	if got := len(s.Ranks); got != 7 {
		t.Fatalf("rank count = %d, want 7", got)
	}
	var total uint64
	for _, rk := range s.Ranks {
		total += rk.MetaCacheHits
	}
	if total != 7+8*64 {
		t.Fatalf("summed hits = %d, want %d", total, 7+8*64)
	}
}

// The record path must not allocate: the whole point of sharded
// atomics and fixed buckets.
func TestRecordPathAllocs(t *testing.T) {
	r := New(SampleEvery(1))
	allocs := testing.AllocsPerRun(1000, func() {
		r.CountOp(OpRead, 0)
		r.ObserveOp(OpRead, 0, 250*time.Nanosecond)
		r.ObserveStage(StageTreeWalk, 0, 100*time.Nanosecond)
		st := r.StartStages(0)
		st.Mark(StageCounterFetch)
		st.Finish(OpRead)
		r.CountOpError(OpRead, 0)
		r.EmitCorrection(CorrectionEvent{Rank: 0, Chip: 3, Region: "data"})
	})
	if allocs != 0 {
		t.Fatalf("record path allocates: %.1f allocs/op", allocs)
	}
}
