package main

import (
	"strings"
	"testing"
	"time"

	"synergy"
	"synergy/internal/telemetry"
)

// hist builds a synthetic histogram snapshot: count observations with
// the given mean, all landing in one bucket.
func hist(count uint64, mean time.Duration) telemetry.HistogramSnapshot {
	var h telemetry.HistogramSnapshot
	h.Count = count
	h.SumNanos = count * uint64(mean.Nanoseconds())
	h.Buckets[10] = count
	return h
}

func TestRenderFrame(t *testing.T) {
	d := synergy.TelemetrySnapshot{
		Ops: map[string]synergy.TelemetryOpSnapshot{
			"read":  {Count: 2000, Errors: 2, Latency: hist(2000, 310*time.Nanosecond)},
			"write": {Count: 500, Latency: hist(500, 800*time.Nanosecond)},
			"scrub": {}, // zero-delta ops stay off the board
		},
		Stages: map[string]telemetry.HistogramSnapshot{
			"counter_fetch": hist(30, 75*time.Nanosecond),
			"mac_verify":    hist(30, 120*time.Nanosecond),
			"otp":           hist(30, 55*time.Nanosecond),
		},
		Ranks: []synergy.TelemetryRankSnapshot{
			{Rank: 0}, // quiet: no row
			{Rank: 1, Corrections: [9]uint64{0, 0, 3}, Reconstructions: 3, ReconstructionAttempts: 7},
		},
	}
	var sb strings.Builder
	render(&sb, d, 2*time.Second)
	out := sb.String()

	for _, want := range []string{
		"2s window",
		"read", "1000", // 2000 ops over 2s
		"310ns",
		"READ STAGE",
		"counter_fetch",
		"rank 1",
		"[0 0 3 0 0 0 0 0 0]",
		"recon 3/7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\n  scrub ") {
		t.Errorf("zero-delta op rendered:\n%s", out)
	}
	if strings.Contains(out, "rank 0") {
		t.Errorf("quiet rank rendered:\n%s", out)
	}
}

// SLO and flight sections render from the snapshot's point-in-time
// views: tenant burn/alert state and recorder capture counts.
func TestRenderSLOAndFlight(t *testing.T) {
	d := synergy.TelemetrySnapshot{
		Ops: map[string]synergy.TelemetryOpSnapshot{
			"rpc_read": {Count: 100, Latency: hist(100, time.Microsecond)},
		},
		SLOs: []telemetry.SLOSnapshot{{
			Name:                        "alpha",
			Availability:                0.95,
			LatencyCompliance:           1,
			AvailabilityFastBurn:        50,
			AvailabilitySlowBurn:        50,
			AvailabilityBudgetRemaining: 0,
			LatencyBudgetRemaining:      1,
			Alert:                       true,
			AlertObjective:              "availability",
		}},
		Flight: &telemetry.FlightStats{
			Offered:            500,
			Captured:           7,
			Retained:           7,
			SlowThresholdNanos: 2500,
			CapturedByAnomaly:  map[string]uint64{"shed": 4, "fail_closed": 3},
		},
	}
	var sb strings.Builder
	render(&sb, d, time.Second)
	out := sb.String()
	for _, want := range []string{
		"slo alpha", "ALERT(availability)", "95.0000%",
		"flight  500 offered, 7 captured, 7 retained",
		"slow>2.5µs", "shed 4", "fail_closed 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q in:\n%s", want, out)
		}
	}

	// No SLOs, no recorder: the sections disappear.
	sb.Reset()
	render(&sb, synergy.TelemetrySnapshot{}, time.Second)
	if strings.Contains(sb.String(), "slo ") || strings.Contains(sb.String(), "flight ") {
		t.Errorf("empty snapshot rendered observability sections:\n%s", sb.String())
	}
}

// The stage share column must weight by total stage time (count×mean),
// not appearance order, and sum to ~100%.
func TestRenderStageShares(t *testing.T) {
	d := synergy.TelemetrySnapshot{
		Ops: map[string]synergy.TelemetryOpSnapshot{},
		Stages: map[string]telemetry.HistogramSnapshot{
			"mac_verify": hist(10, 300*time.Nanosecond), // 3000ns total
			"otp":        hist(10, 100*time.Nanosecond), // 1000ns total
		},
	}
	var sb strings.Builder
	render(&sb, d, time.Second)
	out := sb.String()
	if !strings.Contains(out, "75.0%") || !strings.Contains(out, "25.0%") {
		t.Errorf("expected 75/25 share split in:\n%s", out)
	}
}

func TestFmtDur(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "-"},
		{310 * time.Nanosecond, "310ns"},
		{1200 * time.Nanosecond, "1.2µs"},
		{3500 * time.Microsecond, "3.5ms"},
		{2 * time.Second, "2.00s"},
	}
	for _, c := range cases {
		if got := fmtDur(c.d); got != c.want {
			t.Errorf("fmtDur(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// A process restart resets the endpoint's monotonic counters; the
// poller must notice the regression and resync its baseline instead of
// rendering the new process as idle.
func TestRestartedDetection(t *testing.T) {
	snap := func(reads uint64, scrubScanned uint64) synergy.TelemetrySnapshot {
		return synergy.TelemetrySnapshot{
			Ops:   map[string]synergy.TelemetryOpSnapshot{"read": {Count: reads}},
			Ranks: []synergy.TelemetryRankSnapshot{{Rank: 0, ScrubScanned: scrubScanned}},
		}
	}
	prev := snap(1000, 50)
	if restarted(prev, snap(1500, 80)) {
		t.Error("growing counters flagged as a restart")
	}
	if restarted(prev, snap(1000, 50)) {
		t.Error("identical counters flagged as a restart")
	}
	if !restarted(prev, snap(3, 80)) {
		t.Error("op-count regression not detected")
	}
	if !restarted(prev, snap(1500, 2)) {
		t.Error("rank-counter regression not detected")
	}
	if !restarted(prev, synergy.TelemetrySnapshot{
		Ops: map[string]synergy.TelemetryOpSnapshot{"read": {Count: 1500}},
	}) {
		t.Error("vanished rank not detected as a restart")
	}
	var chipReset synergy.TelemetrySnapshot
	chipReset = snap(1500, 80)
	chipReset.Ranks[0].Corrections[3] = 4
	if restarted(chipReset, chipReset) {
		t.Error("self-comparison flagged as a restart")
	}
	regressed := snap(1500, 80)
	prevChips := snap(1000, 50)
	prevChips.Ranks[0].Corrections[3] = 4
	if !restarted(prevChips, regressed) {
		t.Error("per-chip correction regression not detected")
	}
}

// The RPC surface of the server renders under its own op labels.
func TestRenderRPCOps(t *testing.T) {
	d := synergy.TelemetrySnapshot{
		Ops: map[string]synergy.TelemetryOpSnapshot{
			"rpc_read":     {Count: 900, Latency: hist(900, 850*time.Microsecond)},
			"rpc_rejected": {Count: 12},
		},
	}
	var sb strings.Builder
	render(&sb, d, time.Second)
	out := sb.String()
	for _, want := range []string{"rpc_read", "850.0µs", "rpc_rejected", "900", "12"} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q in:\n%s", want, out)
		}
	}
}
