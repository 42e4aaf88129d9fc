package reliability

import (
	"math"
	"reflect"
	"runtime"
	"testing"
)

// TestParallelDeterminism is the engine's core contract: the Result —
// failures, per-mode attribution, mean faults, Wilson bounds — is
// bit-identical for any worker count.
func TestParallelDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trials = 60_000
	for _, policy := range Policies {
		cfg.Workers = 1
		serial, err := Simulate(policy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 8} {
			cfg.Workers = workers
			got, err := Simulate(policy, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, got) {
				t.Errorf("%s: workers=%d diverges from serial:\n  serial %+v\n  got    %+v",
					policy, workers, serial, got)
			}
		}
	}
}

// TestSharedFaultHistories: fault sampling consumes randomness
// identically under every policy, so MeanFaults — a sampling
// statistic — must agree exactly across the sweep.
func TestSharedFaultHistories(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trials = 30_000
	results, err := SimulateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results[1:] {
		if res.MeanFaults != results[0].MeanFaults {
			t.Errorf("%s sampled different fault histories: MeanFaults %v vs %v",
				res.Policy, res.MeanFaults, results[0].MeanFaults)
		}
		if res.Trials != results[0].Trials {
			t.Errorf("%s ran %d trials, %s ran %d", res.Policy, res.Trials,
				results[0].Policy, results[0].Trials)
		}
	}
}

// TestEarlyStop: with a loose CI target the engine stops long before
// the configured trial budget, reports the trials actually run, and
// the stopping point is identical for every worker count.
func TestEarlyStop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trials = 500_000
	cfg.TargetCIWidth = 0.02 // SECDED p≈0.056 pins down within a few blocks
	cfg.Workers = 1
	serial, err := Simulate(SECDED, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Trials >= cfg.Trials {
		t.Fatalf("early stop never engaged: ran all %d trials", serial.Trials)
	}
	if serial.Trials <= 0 {
		t.Fatal("no trials run")
	}
	lo, hi := serial.WilsonLo, serial.WilsonHi
	if hi-lo > cfg.TargetCIWidth {
		t.Fatalf("stopped with CI width %.4f > target %.4f", hi-lo, cfg.TargetCIWidth)
	}
	cfg.Workers = 8
	parallel, err := Simulate(SECDED, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("early-stop point depends on workers:\n  serial   %+v\n  parallel %+v", serial, parallel)
	}
}

// TestEarlyStopDisabledRunsAllTrials: TargetCIWidth = 0 keeps the old
// fixed-budget behaviour.
func TestEarlyStopDisabledRunsAllTrials(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trials = 10_000
	res, err := Simulate(SECDED, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != cfg.Trials {
		t.Fatalf("ran %d trials, want %d", res.Trials, cfg.Trials)
	}
}

// TestProgressCallback: progress arrives serialized, in trial order,
// and its final report matches the Result.
func TestProgressCallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trials = 20_000
	cfg.Workers = runtime.GOMAXPROCS(0) * 2
	var dones, fails []int
	cfg.Progress = func(done, failures int) {
		dones = append(dones, done)
		fails = append(fails, failures)
	}
	res, err := Simulate(SECDED, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) == 0 {
		t.Fatal("progress never called")
	}
	for i := 1; i < len(dones); i++ {
		if dones[i] <= dones[i-1] || fails[i] < fails[i-1] {
			t.Fatalf("progress not monotone at %d: %v / %v", i, dones, fails)
		}
	}
	if last := dones[len(dones)-1]; last != res.Trials {
		t.Fatalf("final progress %d, result trials %d", last, res.Trials)
	}
	if last := fails[len(fails)-1]; last != res.Failures {
		t.Fatalf("final progress failures %d, result %d", last, res.Failures)
	}
}

// TestMultiRankTwinAccounting: a MultiRank arrival injects two chip
// faults, and MeanFaults counts both (the pre-fix engine counted
// sampled arrivals, so twins were invisible in the statistics).
func TestMultiRankTwinAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trials = 50_000
	// Only MultiRank faults, at a rate giving λ_sys ≈ 1.
	fit := 1 / (1e-9 * cfg.LifetimeHours * float64(cfg.Ranks*cfg.ChipsPerRank))
	cfg.Rates = map[FaultMode]ModeRate{MultiRank: {Permanent: fit}}
	m := buildModel(cfg)
	res, err := Simulate(NoECC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every chip has a partner rank in the 4-rank config, so injected
	// faults = 2 × arrivals.
	want := 2 * m.sysLambda
	if math.Abs(res.MeanFaults-want)/want > 0.05 {
		t.Fatalf("MeanFaults %.4f, want ≈%.4f (twins must be counted)", res.MeanFaults, want)
	}
}

// TestChipkillOddRanks: with 3 ranks the leftover rank must form its
// own group, not collapse every rank into lockstep group 0.
func TestChipkillOddRanks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ranks = 3
	// Ranks 0 and 1 pair; rank 2 is the unpaired leftover.
	g0 := groupOf(Chipkill, 0, cfg)
	g1 := groupOf(Chipkill, cfg.ChipsPerRank, cfg)
	g2 := groupOf(Chipkill, 2*cfg.ChipsPerRank, cfg)
	if g0 != g1 {
		t.Fatalf("ranks 0 and 1 not lockstep-paired: groups %d, %d", g0, g1)
	}
	if g2 == g0 {
		t.Fatalf("leftover rank collapsed into group %d", g0)
	}
	inf := math.Inf(1)
	// Two faulty chips in the paired group -> fail.
	f := []fault{wholeChip(0, cfg, 1, inf), wholeChip(cfg.ChipsPerRank, cfg, 2, inf)}
	if !systemFails(Chipkill, f, cfg) {
		t.Fatal("Chipkill survived two faulty chips in one lockstep group")
	}
	// Faulty chip in the pair plus one in the leftover rank -> survive
	// (the pre-fix grouping failed this, inflating correlation).
	f = []fault{wholeChip(0, cfg, 1, inf), wholeChip(2*cfg.ChipsPerRank, cfg, 2, inf)}
	if systemFails(Chipkill, f, cfg) {
		t.Fatal("Chipkill failed across the leftover rank boundary")
	}
	// Two faulty chips within the leftover rank -> fail (degraded
	// single-rank group still groups its own chips).
	f = []fault{wholeChip(2*cfg.ChipsPerRank, cfg, 1, inf), wholeChip(2*cfg.ChipsPerRank+1, cfg, 2, inf)}
	if !systemFails(Chipkill, f, cfg) {
		t.Fatal("Chipkill survived two faulty chips in the leftover rank")
	}
}

// TestSingleRankChipkill: Ranks=1 must not divide by zero and treats
// the rank as one group.
func TestSingleRankChipkill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ranks = 1
	cfg.Trials = 1_000
	if g := groupOf(Chipkill, 0, cfg); g != 0 {
		t.Fatalf("single rank group = %d", g)
	}
	if _, err := Simulate(Chipkill, cfg); err != nil {
		t.Fatal(err)
	}
}

func benchCfg(trials, workers int) Config {
	cfg := DefaultConfig()
	cfg.Trials = trials
	cfg.Workers = workers
	return cfg
}

// BenchmarkSimulateSerial measures single-worker trials/sec (one op =
// one trial); BenchmarkSimulateParallel8 the 8-worker pool. bench/ does
// not measure the reliability engine, so these two are its only
// throughput record.
func BenchmarkSimulateSerial(b *testing.B) {
	Simulate(Synergy, benchCfg(b.N, 1))
}

func BenchmarkSimulateParallel8(b *testing.B) {
	Simulate(Synergy, benchCfg(b.N, 8))
}
