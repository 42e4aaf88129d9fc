package memctrl

import (
	"testing"

	"synergy/internal/cpu"
	"synergy/internal/dram"
	"synergy/internal/secmem"
	"synergy/internal/trace"
)

// Compile-time check: Controller satisfies the simulator's backend
// contract.
var _ cpu.Memory = (*Controller)(nil)

func newCtrl(t testing.TB, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
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
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newCtrl(t, cfg)
	tm := cfg.Timing
	done := c.Read(0, 0)
	want := tm.TRP + tm.TRCD + tm.TCL + tm.TBurst
	if done != want {
		t.Fatalf("cold read = %d, want %d", done, want)
	}
}

func TestRowHitSkipsActivation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newCtrl(t, cfg)
	tm := cfg.Timing
	first := c.Read(0, 0)
	second := c.Read(first, 2) // same row, next column on channel 0
	if got := second - first; got != tm.TCL+tm.TBurst {
		t.Fatalf("row hit latency %d, want %d", got, tm.TCL+tm.TBurst)
	}
	if c.Stats().RowHits != 1 {
		t.Fatal("row hit not counted")
	}
}

func TestFAWLimitsActivateBursts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newCtrl(t, cfg)
	// Five activates to five different banks of the same rank at t=0:
	// the fifth must wait for the tFAW window.
	stride := uint64(2 * cfg.ColsPerRow) // next bank, same channel/rank
	for b := uint64(0); b < 5; b++ {
		c.Read(0, b*stride)
	}
	if c.Stats().FAWStalls == 0 {
		t.Fatal("fifth activate did not hit the tFAW window")
	}
}

func TestRefreshStallsAccesses(t *testing.T) {
	cfg := DefaultConfig()
	c := newCtrl(t, cfg)
	// An access arriving right at a refresh boundary waits up to tRFC.
	done := c.Read(0, 0) // rank 0 refresh window starts at phase 0
	cfgOff := cfg
	cfgOff.RefreshEnabled = false
	plain := newCtrl(t, cfgOff).Read(0, 0)
	if done <= plain {
		t.Fatalf("refresh-window read %d not delayed past %d", done, plain)
	}
	if c.Stats().RefreshWaits == 0 {
		t.Fatal("refresh wait not counted")
	}
}

func TestRefreshOverheadIsBounded(t *testing.T) {
	// Refresh costs tRFC/tREFI ≈ 3% of time, not more: a long scattered
	// read sequence should see only a small average penalty.
	run := func(refresh bool) float64 {
		cfg := DefaultConfig()
		cfg.RefreshEnabled = refresh
		c := newCtrl(t, cfg)
		addr := uint64(1)
		var now uint64
		for i := 0; i < 5000; i++ {
			addr = addr*6364136223846793005 + 1
			now += 500
			c.Read(now, addr%(1<<24))
		}
		return c.AvgReadLatency()
	}
	with, without := run(true), run(false)
	if with <= without {
		t.Fatalf("refresh did not add latency: %.1f vs %.1f", with, without)
	}
	if with > without*1.25 {
		t.Fatalf("refresh overhead implausible: %.1f vs %.1f", with, without)
	}
}

func TestWriteDrainSetsTurnaround(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	c := newCtrl(t, cfg)
	for i := 0; i < cfg.WriteQHigh; i++ {
		c.Write(0, uint64(2*i))
	}
	c.Read(0, 0)
	if c.Stats().Turnarounds == 0 {
		t.Fatal("write-to-read turnaround not applied after drain")
	}
}

func TestLockstepCouplesChannels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshEnabled = false
	cfg.Lockstep = true
	c := newCtrl(t, cfg)
	d0 := c.Read(0, 0) // channel 0 (+ peer 1)
	d1 := c.Read(0, 1) // channel 1: bus already reserved by lockstep
	if d1 < d0+cfg.Timing.TBurst {
		t.Fatalf("lockstep peer bus not reserved: %d then %d", d0, d1)
	}
}

func TestCountsMatchStats(t *testing.T) {
	c := newCtrl(t, DefaultConfig())
	c.Read(0, 0)
	c.Write(0, 1)
	r, w := c.Counts()
	if r != 1 || w != 1 {
		t.Fatalf("Counts = %d/%d", r, w)
	}
}

// End-to-end: the full simulator runs on the detailed controller, and
// the headline ordering (Synergy > SGX_O) holds on it too — the
// result is not an artifact of the streamlined timing model.
func TestHeadlineHoldsOnDetailedBackend(t *testing.T) {
	var w trace.Workload
	for _, cand := range trace.Workloads() {
		if cand.Name == "mcf" {
			w = cand
		}
	}
	run := func(d secmem.Design) float64 {
		hier, err := secmem.New(secmem.DefaultConfig(d))
		if err != nil {
			t.Fatal(err)
		}
		mem := newCtrl(t, DefaultConfig())
		cfg := cpu.DefaultConfig()
		cfg.InstrPerCore = 300_000
		res, err := cpu.Run(cfg, w, hier, mem)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC
	}
	syn, sgxo, sgx := run(secmem.Synergy), run(secmem.SGXO), run(secmem.SGX)
	if !(syn > sgxo && sgxo > sgx) {
		t.Fatalf("ordering broke on detailed backend: %.3f / %.3f / %.3f", syn, sgxo, sgx)
	}
}

// The two backends must agree on the broad latency picture for the
// same stream (detailed ≥ streamlined, within a sane factor).
func TestBackendsBroadlyAgree(t *testing.T) {
	simple, _ := dram.New(dram.DefaultConfig())
	detail := newCtrl(t, DefaultConfig())
	addr := uint64(1)
	var now uint64
	for i := 0; i < 5000; i++ {
		addr = addr*2862933555777941757 + 3037000493
		now += 200
		simple.Read(now, addr%(1<<22))
		detail.Read(now, addr%(1<<22))
	}
	s, d := simple.AvgReadLatency(), detail.AvgReadLatency()
	if d < s*0.7 || d > s*2.5 {
		t.Fatalf("backends diverge: streamlined %.1f vs detailed %.1f", s, d)
	}
}

func BenchmarkDetailedRead(b *testing.B) {
	c, _ := New(DefaultConfig())
	for i := 0; i < b.N; i++ {
		c.Read(uint64(i)*4, uint64(i)*2654435761%(1<<24))
	}
}
