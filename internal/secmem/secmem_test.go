package secmem

import (
	"testing"
)

// smallConfig shrinks the caches so tests exercise evictions quickly.
func smallConfig(d Design) Config {
	cfg := DefaultConfig(d)
	cfg.LLCLines = 512
	cfg.MetaLines = 64
	cfg.MemLines = 1 << 24
	return cfg
}

func mustNew(t testing.TB, cfg Config) *Hierarchy {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func countCat(txs []Tx, cat Category, write bool) int {
	n := 0
	for _, tx := range txs {
		if tx.Cat == cat && tx.Write == write {
			n++
		}
	}
	return n
}

func TestNewValidation(t *testing.T) {
	bad := DefaultConfig(SGXO)
	bad.MemLines = 0
	if _, err := New(bad); err == nil {
		t.Fatal("accepted zero MemLines")
	}
	bad = DefaultConfig(SGXO)
	bad.CounterShift = 0
	if _, err := New(bad); err == nil {
		t.Fatal("accepted zero CounterShift")
	}
}

func TestLevelsFor(t *testing.T) {
	cases := []struct {
		leaves uint64
		want   int
	}{{1, 0}, {8, 1}, {9, 2}, {64, 2}, {1 << 25, 9}}
	for _, tc := range cases {
		if got := levelsFor(tc.leaves); got != tc.want {
			t.Errorf("levelsFor(%d) = %d, want %d", tc.leaves, got, tc.want)
		}
	}
}

func TestTreeDepthMatchesPaper(t *testing.T) {
	// Footnote 3: a 9-level tree protects a 16 GB memory.
	h := mustNew(t, DefaultConfig(SGXO))
	if h.TreeLevels() != 9 {
		t.Fatalf("tree levels = %d, want 9 for 16 GB", h.TreeLevels())
	}
}

func TestNonSecureOnlyDataTraffic(t *testing.T) {
	h := mustNew(t, smallConfig(NonSecure))
	hit, txs := h.Read(1000)
	if hit {
		t.Fatal("cold read hit")
	}
	if len(txs) != 1 || txs[0].Cat != CatData || txs[0].Write {
		t.Fatalf("NonSecure read txs = %+v", txs)
	}
}

func TestLLCHitProducesNoTraffic(t *testing.T) {
	h := mustNew(t, smallConfig(SGXO))
	h.Read(42)
	hit, txs := h.Read(42)
	if !hit || txs != nil {
		t.Fatalf("second read: hit=%v txs=%v", hit, txs)
	}
}

func TestColdReadFetchesCounterTreeAndMAC(t *testing.T) {
	h := mustNew(t, smallConfig(SGXO))
	_, txs := h.Read(0)
	if countCat(txs, CatData, false) != 1 {
		t.Fatalf("data reads = %d", countCat(txs, CatData, false))
	}
	if countCat(txs, CatMAC, false) != 1 {
		t.Fatalf("MAC reads = %d", countCat(txs, CatMAC, false))
	}
	// Cold counter + full tree walk.
	wantCtr := 1 + h.TreeLevels()
	if got := countCat(txs, CatCounter, false); got != wantCtr {
		t.Fatalf("counter reads = %d, want %d", got, wantCtr)
	}
}

func TestWarmCounterOnlyMACTraffic(t *testing.T) {
	h := mustNew(t, smallConfig(SGXO))
	h.Read(0)
	// Line 1 shares line 0's counter line (8 lines per counter line):
	// only data + MAC should go to memory.
	_, txs := h.Read(1)
	if countCat(txs, CatCounter, false) != 0 {
		t.Fatalf("counter reads on warm counter = %d", countCat(txs, CatCounter, false))
	}
	if countCat(txs, CatMAC, false) != 1 {
		t.Fatal("MAC read missing — SGX_O never caches MACs")
	}
}

func TestSynergyHasNoMACTraffic(t *testing.T) {
	h := mustNew(t, smallConfig(Synergy))
	_, txs := h.Read(0)
	if countCat(txs, CatMAC, false)+countCat(txs, CatMAC, true) != 0 {
		t.Fatalf("Synergy produced MAC traffic: %+v", txs)
	}
}

func TestSynergyWritebackEmitsParity(t *testing.T) {
	cfg := smallConfig(Synergy)
	h := mustNew(t, cfg)
	// Dirty a line, then force its eviction by filling its set.
	h.Write(0)
	var parityWrites int
	// Evict by touching many lines mapping to the same set.
	sets := uint64(cfg.LLCLines / cfg.LLCWays)
	for k := uint64(1); k <= uint64(cfg.LLCWays)+1; k++ {
		_, txs := h.Read(k * sets)
		parityWrites += countCat(txs, CatParity, true)
	}
	if parityWrites == 0 {
		t.Fatal("dirty eviction produced no parity write")
	}
	tr := h.Traffic()
	if tr.Writes[CatData] == 0 {
		t.Fatal("dirty eviction produced no data write")
	}
	if tr.Writes[CatMAC] != 0 {
		t.Fatal("Synergy wrote MACs")
	}
}

func TestSGXOWritebackEmitsMACWrite(t *testing.T) {
	cfg := smallConfig(SGXO)
	h := mustNew(t, cfg)
	h.Write(0)
	sets := uint64(cfg.LLCLines / cfg.LLCWays)
	for k := uint64(1); k <= uint64(cfg.LLCWays)+1; k++ {
		h.Read(k * sets)
	}
	tr := h.Traffic()
	if tr.Writes[CatMAC] == 0 {
		t.Fatal("SGX_O dirty eviction produced no MAC write")
	}
	if tr.Writes[CatParity] != 0 {
		t.Fatal("SGX_O produced parity traffic")
	}
}

func TestSGXDoesNotUseLLCForCounters(t *testing.T) {
	sgx := mustNew(t, smallConfig(SGX))
	// Thrash the dedicated cache with counters from widely spread lines.
	stride := uint64(8 << 3) // distinct counter lines
	n := uint64(sgx.Meta().Lines()) * 4
	for i := uint64(0); i < n; i++ {
		sgx.Read(i * stride)
	}
	// Re-read the first line: its counter must have been evicted to
	// DRAM (not the LLC), so a counter read must appear.
	_, txs := sgx.Read(1) // same counter line as line 0, evicted by now
	if countCat(txs, CatCounter, false) == 0 {
		t.Fatal("SGX counter survived dedicated-cache thrash — LLC caching leaked in")
	}
}

func TestSGXOCountersSpillToLLC(t *testing.T) {
	cfg := smallConfig(SGXO)
	cfg.LLCLines = 1 << 14 // plenty of LLC room
	h := mustNew(t, cfg)
	stride := uint64(8 << 3)
	n := uint64(cfg.MetaLines) * 2 // overflow the dedicated cache only
	for i := uint64(0); i < n; i++ {
		h.Read(i * stride)
	}
	// Line 0's counter was evicted from the dedicated cache into the
	// LLC; re-reading must not produce a DRAM counter read.
	_, txs := h.Read(1)
	if countCat(txs, CatCounter, false) != 0 {
		t.Fatal("SGX_O counter not found in LLC after dedicated-cache eviction")
	}
}

func TestIVECCachesMACsInLLC(t *testing.T) {
	h := mustNew(t, smallConfig(IVEC))
	_, txs := h.Read(0)
	if countCat(txs, CatMAC, false) == 0 {
		t.Fatal("IVEC cold read fetched no MAC-tree lines")
	}
	// Line 1 shares line 0's MAC line, now cached in the LLC.
	_, txs = h.Read(1)
	if countCat(txs, CatMAC, false) != 0 {
		t.Fatalf("IVEC MAC not cached: %+v", txs)
	}
}

func TestIVECWritebackDirtiesMACTree(t *testing.T) {
	cfg := smallConfig(IVEC)
	h := mustNew(t, cfg)
	h.Write(0)
	sets := uint64(cfg.LLCLines / cfg.LLCWays)
	for k := uint64(1); k <= uint64(cfg.LLCWays)+4; k++ {
		h.Read(k * sets)
	}
	tr := h.Traffic()
	if tr.Writes[CatMAC] == 0 {
		t.Fatal("IVEC data writeback produced no MAC write")
	}
	if tr.Writes[CatParity] == 0 {
		t.Fatal("IVEC data writeback produced no parity write")
	}
}

func TestLOTECCParityPerWriteback(t *testing.T) {
	runLot := func(wc bool) uint64 {
		cfg := smallConfig(LOTECC)
		h := mustNew(t, cfg)
		h.SetLOTWriteCoalescing(wc)
		// Generate many dirty evictions.
		for i := uint64(0); i < 4096; i++ {
			h.Write(i * 3)
		}
		return h.Traffic().Writes[CatParity]
	}
	plain := runLot(false)
	coalesced := runLot(true)
	if plain == 0 {
		t.Fatal("LOT-ECC produced no parity writes")
	}
	ratio := float64(coalesced) / float64(plain)
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("coalescing ratio %.2f, want ≈0.5", ratio)
	}
}

func TestTrafficTotals(t *testing.T) {
	h := mustNew(t, smallConfig(SGXO))
	h.Read(0)
	h.Write(100)
	tr := h.Traffic()
	if tr.Total() != tr.TotalReads()+tr.TotalWrites() {
		t.Fatal("Total != TotalReads + TotalWrites")
	}
	if tr.TotalReads() == 0 {
		t.Fatal("no reads recorded")
	}
}

func TestCriticalMarking(t *testing.T) {
	h := mustNew(t, smallConfig(SGXO))
	_, txs := h.Read(0)
	for _, tx := range txs {
		if tx.Write && tx.Critical {
			t.Fatalf("write marked critical: %+v", tx)
		}
		if !tx.Write && !tx.Critical {
			t.Fatalf("read-side fetch not critical: %+v", tx)
		}
	}
}

func TestDesignAndCategoryStrings(t *testing.T) {
	for _, d := range []Design{NonSecure, SGX, SGXO, Synergy, IVEC, LOTECC} {
		if d.String() == "" {
			t.Errorf("design %d has empty name", d)
		}
	}
	if SGXO.String() != "SGX_O" || Synergy.String() != "Synergy" {
		t.Error("canonical names wrong")
	}
	for _, c := range []Category{CatData, CatCounter, CatMAC, CatParity} {
		if c.String() == "" {
			t.Errorf("category %d has empty name", c)
		}
	}
}

// Traffic-shape regression for the headline mechanism: on a read-heavy
// miss stream, Synergy must issue fewer transactions than SGX_O (no MAC
// reads) — the bandwidth saving behind the paper's 20% speedup.
func TestSynergyTrafficBelowSGXO(t *testing.T) {
	run := func(d Design) uint64 {
		h := mustNew(t, smallConfig(d))
		for i := uint64(0); i < 8192; i++ {
			h.Read(i * 7 % (1 << 20))
		}
		return h.Traffic().Total()
	}
	sgxo := run(SGXO)
	syn := run(Synergy)
	ns := run(NonSecure)
	if syn >= sgxo {
		t.Fatalf("Synergy traffic %d not below SGX_O %d", syn, sgxo)
	}
	if ns >= syn {
		t.Fatalf("NonSecure traffic %d not below Synergy %d", ns, syn)
	}
}

func BenchmarkReadExpansionSGXO(b *testing.B) {
	h, _ := New(DefaultConfig(SGXO))
	for i := 0; i < b.N; i++ {
		h.Read(uint64(i) * 2654435761 % (1 << 26))
	}
}

func TestSynergy16NoParityTraffic(t *testing.T) {
	cfg := smallConfig(Synergy16)
	h := mustNew(t, cfg)
	h.Write(0)
	sets := uint64(cfg.LLCLines / cfg.LLCWays)
	for k := uint64(1); k <= uint64(cfg.LLCWays)+1; k++ {
		h.Read(k * sets)
	}
	tr := h.Traffic()
	if tr.Writes[CatData] == 0 {
		t.Fatal("no data writeback generated")
	}
	if tr.Writes[CatParity] != 0 || tr.Reads[CatParity] != 0 {
		t.Fatal("Synergy-16B produced parity traffic (it co-locates parity)")
	}
	if tr.Writes[CatMAC]+tr.Reads[CatMAC] != 0 {
		t.Fatal("Synergy-16B produced MAC traffic")
	}
	if Synergy16.String() != "Synergy-16B" {
		t.Fatal("Synergy16 name wrong")
	}
}

func TestSpeculativeDowngradesMACCriticality(t *testing.T) {
	cfg := smallConfig(SGXO)
	cfg.Speculative = true
	h := mustNew(t, cfg)
	_, txs := h.Read(0)
	for _, tx := range txs {
		if tx.Cat == CatMAC && tx.Critical {
			t.Fatal("speculative mode left the MAC fetch on the critical path")
		}
		if tx.Cat == CatData && !tx.Critical {
			t.Fatal("data fetch must stay critical")
		}
	}
	// The MAC traffic itself is unchanged (bandwidth still consumed).
	if countCat(txs, CatMAC, false) != 1 {
		t.Fatal("speculation removed the MAC fetch instead of de-prioritizing it")
	}
}
