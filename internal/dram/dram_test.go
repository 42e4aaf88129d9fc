package dram

import "testing"

func newSys(t testing.TB, cfg Config) *System {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Channels = 0
	if _, err := New(bad); err == nil {
		t.Fatal("accepted zero channels")
	}
	odd := DefaultConfig()
	odd.Channels = 3
	odd.Lockstep = true
	if _, err := New(odd); err == nil {
		t.Fatal("accepted odd lockstep channels")
	}
}

func TestColdReadLatency(t *testing.T) {
	s := newSys(t, DefaultConfig())
	done := s.Read(0, 0)
	want := uint64(TChannel + TRP + TRCD + TCAS + TBurst)
	if done != want {
		t.Fatalf("cold read latency %d, want %d", done, want)
	}
	if s.Stats().RowMisses != 1 {
		t.Fatal("cold read should be a row miss")
	}
}

func TestRowHitIsFaster(t *testing.T) {
	s := newSys(t, DefaultConfig())
	first := s.Read(0, 0)
	// Same channel, same bank, same row: the next sequential line on
	// channel 0 is line 2 (lines interleave across 2 channels).
	second := s.Read(first, 2)
	hitLat := second - first
	if s.Stats().RowHits != 1 {
		t.Fatalf("expected a row hit, stats=%+v", s.Stats())
	}
	if hitLat >= first {
		t.Fatalf("row hit latency %d not faster than miss %d", hitLat, first)
	}
}

func TestChannelInterleaving(t *testing.T) {
	s := newSys(t, DefaultConfig())
	// Lines 0 and 1 are on different channels: issued at the same time
	// they complete independently (same latency).
	d0 := s.Read(0, 0)
	d1 := s.Read(0, 1)
	if d0 != d1 {
		t.Fatalf("independent channels serialized: %d vs %d", d0, d1)
	}
}

func TestBusSerializesBursts(t *testing.T) {
	s := newSys(t, DefaultConfig())
	// Two reads to the same channel, different banks, at the same time:
	// the second's data must trail the first by at least one burst.
	d0 := s.Read(0, 0)
	banksPerCh := uint64(s.Config().RanksPerCh * s.Config().BanksPerRk)
	otherBank := 2 * uint64(s.Config().ColsPerRow) // next bank on channel 0
	_ = banksPerCh
	d1 := s.Read(0, otherBank)
	if d1 < d0+TBurst {
		t.Fatalf("bursts overlapped: %d then %d", d0, d1)
	}
	// But it must NOT pay the full serialized latency (banks pipeline).
	if d1 >= d0+TChannel+TRP+TRCD+TCAS {
		t.Fatalf("banks did not pipeline: %d then %d", d0, d1)
	}
}

func TestStreamingBandwidth(t *testing.T) {
	s := newSys(t, DefaultConfig())
	// Stream many lines; steady-state throughput should approach one
	// burst per channel per TBurst.
	var last uint64
	const n = 4096
	for i := uint64(0); i < n; i++ {
		done := s.Read(0, i)
		if done > last {
			last = done
		}
	}
	// 2 channels: n lines need about n/2 bursts' worth of time each.
	ideal := uint64(n / 2 * TBurst)
	if last > ideal*3/2 {
		t.Fatalf("streaming took %d cycles, ideal %d — bandwidth too low", last, ideal)
	}
	if last < ideal {
		t.Fatalf("streaming took %d cycles < ideal %d — model too optimistic", last, ideal)
	}
	if rate := s.RowHitRate(); rate < 0.9 {
		t.Fatalf("streaming row-hit rate %.2f, want > 0.9", rate)
	}
}

func TestRandomTrafficHasRowMisses(t *testing.T) {
	s := newSys(t, DefaultConfig())
	addr := uint64(1)
	for i := 0; i < 2000; i++ {
		addr = addr*6364136223846793005 + 1442695040888963407
		s.Read(uint64(i)*100, addr%(1<<24))
	}
	if rate := s.RowHitRate(); rate > 0.5 {
		t.Fatalf("random traffic row-hit rate %.2f, want < 0.5", rate)
	}
}

func TestLockstepHalvesBandwidth(t *testing.T) {
	run := func(lockstep bool) uint64 {
		cfg := DefaultConfig()
		cfg.Lockstep = lockstep
		s := newSys(t, cfg)
		var last uint64
		for i := uint64(0); i < 2048; i++ {
			if d := s.Read(0, i); d > last {
				last = d
			}
		}
		return last
	}
	normal := run(false)
	ganged := run(true)
	if ganged < normal*3/2 {
		t.Fatalf("lockstep %d vs normal %d — expected ~2x slowdown", ganged, normal)
	}
}

func TestWriteDrainDelaysReads(t *testing.T) {
	cfg := DefaultConfig()
	s := newSys(t, cfg)
	// Flood channel 0's write queue past the high watermark.
	for i := 0; i < cfg.WriteQHigh; i++ {
		s.Write(0, uint64(i*2)) // even lines -> channel 0
	}
	d := s.Read(0, 0)
	plain := newSys(t, cfg).Read(0, 0)
	if d <= plain {
		t.Fatalf("read after write flood took %d, no-drain read %d", d, plain)
	}
	if s.Stats().DrainStall == 0 {
		t.Fatal("drain stall not accounted")
	}
}

func TestWritesCounted(t *testing.T) {
	s := newSys(t, DefaultConfig())
	s.Write(0, 0)
	s.Write(0, 1)
	if s.Stats().Writes != 2 {
		t.Fatalf("writes = %d", s.Stats().Writes)
	}
}

func TestAvgReadLatencyGrowsUnderLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	light := newSys(t, cfg)
	for i := uint64(0); i < 100; i++ {
		light.Read(i*1000, i*64) // widely spaced in time
	}
	heavy := newSys(t, cfg)
	for i := uint64(0); i < 100; i++ {
		heavy.Read(0, i*64) // all at once
	}
	if heavy.AvgReadLatency() <= light.AvgReadLatency() {
		t.Fatalf("queued latency %.1f not above unloaded %.1f",
			heavy.AvgReadLatency(), light.AvgReadLatency())
	}
}

func BenchmarkRead(b *testing.B) {
	s, _ := New(DefaultConfig())
	for i := 0; i < b.N; i++ {
		s.Read(uint64(i)*4, uint64(i)*2654435761%(1<<24))
	}
}

func TestRowInterleaveKeepsRowsOnOneChannel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RowInterleave = true
	s := newSys(t, cfg)
	// Consecutive lines within a row share channel and row buffer:
	// streaming becomes a string of row hits on one channel.
	var last uint64
	for i := uint64(0); i < uint64(cfg.ColsPerRow); i++ {
		if d := s.Read(0, i); d > last {
			last = d
		}
	}
	if rate := s.RowHitRate(); rate < 0.95 {
		t.Fatalf("row-interleave streaming hit rate %.2f, want ≈1", rate)
	}
	// But a burst of independent accesses saturates one channel, while
	// line interleave spreads it across both (~2x the bandwidth).
	s2 := newSys(t, DefaultConfig())
	var last2 uint64
	for i := uint64(0); i < uint64(cfg.ColsPerRow); i++ {
		if d := s2.Read(0, i); d > last2 {
			last2 = d
		}
	}
	if last < last2*3/2 {
		t.Fatalf("row interleave %d not ~2x slower than line interleave %d for a parallel burst", last, last2)
	}
}
