package telemetry

import (
	"bufio"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"
)

// promLine matches one exposition sample: name{labels} value, the
// label block optional. The value may be an integer, float or
// exponent form.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? ` +
		`(NaN|[-+]?(?:[0-9]*\.)?[0-9]+(?:[eE][-+]?[0-9]+)?)$`)

// sampleFamily strips a sample line to its metric family name (the
// HELP/TYPE unit: histogram suffixes removed, labels dropped).
func sampleFamily(line string) string {
	name := line[:strings.IndexAny(line, "{ ")]
	return strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
		"_bucket"), "_sum"), "_count")
}

// parseExposition validates the text format line by line and returns
// the sample count per metric family.
func parseExposition(t *testing.T, text string) map[string]int {
	t.Helper()
	families := map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		families[sampleFamily(line)]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return families
}

func TestWritePrometheus(t *testing.T) {
	r := New(SampleEvery(1))
	r.CountOp(OpRead, 0)
	r.CountOp(OpRead, 1)
	r.CountOpError(OpRead, 0)
	r.ObserveOp(OpRead, 0, 300*time.Nanosecond)
	r.ObserveStage(StageCounterFetch, 0, 80*time.Nanosecond)
	r.ObserveStage(StageOTP, 0, 40*time.Nanosecond)
	r.RegisterRank(0, func(rs *RankSnapshot, _ *[NumOps]uint64) {
		rs.Corrections[4]++
		rs.Poisoned++
		rs.ScrubSegments++
		rs.ScrubPasses++
		rs.ScrubScanned += 128
		rs.ScrubCorrected++
		rs.FastReads++
		rs.GenRetries++
		rs.Escalations[EscCacheMiss]++
		rs.Escalations[EscMismatch]++
	})
	r.RegisterRank(1, func(rs *RankSnapshot, _ *[NumOps]uint64) {
		rs.Corrections[7]++
		rs.Repairs++
	})
	r.AddTrials(10_000)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	families := parseExposition(t, text)

	for _, want := range []string{
		"synergy_ops_total",
		"synergy_op_errors_total",
		"synergy_op_latency_seconds",
		"synergy_read_stage_seconds",
		"synergy_corrections_total",
		"synergy_poison_events_total",
		"synergy_scrub_passes_total",
		"synergy_chip_repairs_total",
		"synergy_read_fast_total",
		"synergy_read_gen_retries_total",
		"synergy_read_escalations_total",
	} {
		if families[want] == 0 {
			t.Errorf("family %s missing from exposition", want)
		}
	}
	for _, want := range []string{
		`synergy_corrections_total{rank="0",chip="4"} 1`,
		`synergy_corrections_total{rank="1",chip="7"} 1`,
		`synergy_ops_total{op="read"} 2`,
		`synergy_op_errors_total{op="read"} 1`,
		`synergy_ops_total{op="trial"} 10000`,
		`synergy_poison_events_total{rank="0",event="poisoned"} 1`,
		`synergy_scrub_lines_scanned_total{rank="0"} 128`,
		`synergy_read_fast_total{rank="0"} 1`,
		`synergy_read_gen_retries_total{rank="0"} 1`,
		`synergy_read_escalations_total{rank="0",reason="cache_miss"} 1`,
		`synergy_read_escalations_total{rank="0",reason="mismatch"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing sample %q", want)
		}
	}
	// Histograms must be cumulative and end at +Inf == count.
	if !strings.Contains(text, `synergy_op_latency_seconds_bucket{op="read",le="+Inf"} 1`) {
		t.Error("read latency +Inf bucket missing or wrong")
	}
	if !strings.Contains(text, `synergy_op_latency_seconds_count{op="read"} 1`) {
		t.Error("read latency count missing")
	}
	// The trial op is counted but never timed.
	if strings.Contains(text, `synergy_op_latency_seconds_count{op="trial"}`) {
		t.Error("trial op must not emit a latency histogram")
	}
}

func TestWritePrometheusCumulativeBuckets(t *testing.T) {
	r := New()
	// Three observations in three distinct octaves.
	r.ObserveOp(OpWrite, 0, 100*time.Nanosecond)
	r.ObserveOp(OpWrite, 0, 10*time.Microsecond)
	r.ObserveOp(OpWrite, 0, 1*time.Millisecond)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	last := uint64(0)
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	seen := 0
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `synergy_op_latency_seconds_bucket{op="write",`) {
			continue
		}
		var v uint64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("buckets not cumulative: %q after %d", line, last)
		}
		last = v
		seen++
	}
	if seen < 4 { // 3 octaves + +Inf
		t.Fatalf("expected ≥4 write buckets, saw %d", seen)
	}
	if last != 3 {
		t.Fatalf("final cumulative bucket = %d, want 3", last)
	}
}

// TestWritePrometheusRoundTrip is the exposition contract for a fully
// loaded registry — ops, stages, SLO trackers and a flight recorder:
// every sample parses, every family carries HELP and TYPE metadata
// with a valid type, no series (name + label set) appears twice, and
// the synergy_slo_* / synergy_flight_* families are present.
func TestWritePrometheusRoundTrip(t *testing.T) {
	r := New(SampleEvery(1))
	r.CountOp(OpRead, 0)
	r.ObserveOp(OpRead, 0, time.Microsecond)
	r.ObserveStage(StageMACVerify, 0, 100*time.Nanosecond)
	r.RegisterRank(0, func(rs *RankSnapshot, _ *[NumOps]uint64) { rs.Escalations[EscCacheMiss]++ })

	slo := NewSLO(SLOConfig{Name: "acme"})
	slo.Observe(false, time.Millisecond)
	slo.Observe(true, 10*time.Millisecond)
	r.RegisterSLO(slo)
	r.RegisterSLO(NewSLO(SLOConfig{Name: "beta"}))

	f := NewFlightRecorder(FlightConfig{})
	sp := BeginSpan(OpRPCRead, TraceID{}, SpanID{})
	sp.Flag(AnomalyShed)
	f.Offer(sp)
	r.SetFlight(f)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	help := map[string]bool{}
	typ := map[string]string{}
	series := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			help[strings.Fields(line)[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if prev, dup := typ[fields[2]]; dup {
				t.Errorf("family %s declared TYPE twice (%s)", fields[2], prev)
			}
			typ[fields[2]] = fields[3]
		default:
			if !promLine.MatchString(line) {
				t.Fatalf("malformed exposition line: %q", line)
			}
			key := line[:strings.LastIndexByte(line, ' ')]
			if series[key] {
				t.Errorf("duplicate series %q", key)
			}
			series[key] = true
			fam := sampleFamily(line)
			if !help[fam] {
				t.Errorf("sample %q precedes or lacks its # HELP", line)
			}
			switch typ[fam] {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("family %s has TYPE %q", fam, typ[fam])
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, want := range []string{
		"synergy_slo_requests_total",
		"synergy_slo_errors_total",
		"synergy_slo_slow_requests_total",
		"synergy_slo_availability",
		"synergy_slo_latency_compliance",
		"synergy_slo_burn_rate",
		"synergy_slo_budget_remaining",
		"synergy_slo_alert",
		"synergy_flight_spans_offered_total",
		"synergy_flight_spans_captured_total",
		"synergy_flight_captured_by_anomaly_total",
		"synergy_flight_retained_spans",
		"synergy_flight_slow_threshold_seconds",
	} {
		if typ[want] == "" {
			t.Errorf("family %s missing from exposition", want)
		}
	}
	for _, want := range []string{
		`synergy_slo_requests_total{slo="acme"} 2`,
		`synergy_slo_errors_total{slo="acme"} 1`,
		`synergy_slo_slow_requests_total{slo="acme"} 1`,
		`synergy_slo_requests_total{slo="beta"} 0`,
		`synergy_slo_burn_rate{slo="acme",objective="availability",window="fast"}`,
		`synergy_slo_burn_rate{slo="acme",objective="latency",window="slow"}`,
		`synergy_flight_spans_offered_total 1`,
		`synergy_flight_spans_captured_total 1`,
		`synergy_flight_captured_by_anomaly_total{anomaly="shed"} 1`,
		`synergy_flight_retained_spans 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing sample %q", want)
		}
	}
}

func TestWritePrometheusDisabled(t *testing.T) {
	var b strings.Builder
	if err := Disabled.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	parseExposition(t, b.String()) // must still be well-formed
}
