package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): counters for every op and rank
// event, histograms (cumulative le buckets, in seconds) for op
// latencies and the secure-read pipeline stages. A disabled registry
// renders the metric families with no samples.
//
// Metric names:
//
//	synergy_ops_total{op=...}
//	synergy_op_errors_total{op=...}
//	synergy_op_latency_seconds{op=...}           (histogram)
//	synergy_read_stage_seconds{stage=...}        (histogram, sampled)
//	synergy_corrections_total{rank=...,chip=...}
//	synergy_preemptive_fixes_total{rank=...}
//	synergy_reconstructions_total{rank=...,outcome="ok"|"failed"}
//	synergy_reconstruction_attempts_total{rank=...}
//	synergy_poison_events_total{rank=...,event="poisoned"|"healed"}
//	synergy_fail_closed_total{rank=...}
//	synergy_chip_repairs_total{rank=...}
//	synergy_scrub_passes_total{rank=...}
//	synergy_scrub_lines_scanned_total{rank=...}
//	synergy_scrub_lines_corrected_total{rank=...}
//	synergy_metacache_lookups_total{rank=...,result="hit"|"miss"}
//	synergy_metacache_writebacks_total{rank=...}
//	synergy_metacache_dirty_entries{rank=...}          (gauge)
//	synergy_read_fast_total{rank=...}
//	synergy_read_gen_retries_total{rank=...}
//	synergy_read_escalations_total{rank=...,reason=...}
//
// Registered SLO trackers and an attached flight recorder add:
//
//	synergy_slo_requests_total{slo=...}
//	synergy_slo_errors_total{slo=...}
//	synergy_slo_slow_requests_total{slo=...}
//	synergy_slo_availability{slo=...}                  (gauge)
//	synergy_slo_latency_compliance{slo=...}            (gauge)
//	synergy_slo_burn_rate{slo=...,objective=...,window=...} (gauge)
//	synergy_slo_budget_remaining{slo=...,objective=...} (gauge)
//	synergy_slo_alert{slo=...}                         (gauge, 0/1)
//	synergy_flight_spans_offered_total
//	synergy_flight_spans_captured_total
//	synergy_flight_captured_by_anomaly_total{anomaly=...}
//	synergy_flight_retained_spans                      (gauge)
//	synergy_flight_slow_threshold_seconds              (gauge)
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	ew := &errWriter{w: w}

	ew.family("synergy_ops_total", "counter", "Completed engine operations by kind.")
	forEachOp(s, func(name string, op OpSnapshot) {
		ew.sample("synergy_ops_total", lbl("op", name), op.Count)
	})
	ew.family("synergy_op_errors_total", "counter", "Failed engine operations by kind (subset of synergy_ops_total).")
	forEachOp(s, func(name string, op OpSnapshot) {
		ew.sample("synergy_op_errors_total", lbl("op", name), op.Errors)
	})

	ew.family("synergy_op_latency_seconds", "histogram", "Operation latency. Single-line reads and writes are sampled (see DESIGN.md §11); coarse ops are timed on every call.")
	forEachOp(s, func(name string, op OpSnapshot) {
		if name == OpTrial.String() || name == OpRPCRejected.String() {
			return // trials and rejections are counted, never timed
		}
		ew.histogram("synergy_op_latency_seconds", lbl("op", name), op.Latency)
	})

	ew.family("synergy_read_stage_seconds", "histogram", "Sampled secure-read pipeline stage latency (Fig. 5 breakdown).")
	stageNames := make([]string, 0, len(s.Stages))
	for name := range s.Stages {
		stageNames = append(stageNames, name)
	}
	sort.Strings(stageNames)
	for _, name := range stageNames {
		ew.histogram("synergy_read_stage_seconds", lbl("stage", name), s.Stages[name])
	}

	ew.family("synergy_corrections_total", "counter", "Successful line corrections by rank and identified chip.")
	for _, rk := range s.Ranks {
		for chip, n := range rk.Corrections {
			ew.sample("synergy_corrections_total",
				lbl("rank", strconv.Itoa(rk.Rank))+","+lbl("chip", strconv.Itoa(chip)), n)
		}
	}
	ew.family("synergy_preemptive_fixes_total", "counter", "Reads served via the condemned-chip pre-emptive path, under either lock.")
	for _, rk := range s.Ranks {
		ew.sample("synergy_preemptive_fixes_total", lbl("rank", strconv.Itoa(rk.Rank)), rk.Preemptive)
	}
	ew.family("synergy_reconstructions_total", "counter", "Reconstruction-loop runs by outcome.")
	for _, rk := range s.Ranks {
		rl := lbl("rank", strconv.Itoa(rk.Rank))
		ew.sample("synergy_reconstructions_total", rl+","+lbl("outcome", "ok"),
			subClamp(rk.Reconstructions, rk.ReconstructionFailures))
		ew.sample("synergy_reconstructions_total", rl+","+lbl("outcome", "failed"), rk.ReconstructionFailures)
	}
	ew.family("synergy_reconstruction_attempts_total", "counter", "Candidate reconstructions tried, including the MAC-chip candidate, which reuses the as-read MAC.")
	for _, rk := range s.Ranks {
		ew.sample("synergy_reconstruction_attempts_total", lbl("rank", strconv.Itoa(rk.Rank)), rk.ReconstructionAttempts)
	}
	ew.family("synergy_poison_events_total", "counter", "Lines poisoned (uncorrectable) and healed (write or repair).")
	for _, rk := range s.Ranks {
		rl := lbl("rank", strconv.Itoa(rk.Rank))
		ew.sample("synergy_poison_events_total", rl+","+lbl("event", "poisoned"), rk.Poisoned)
		ew.sample("synergy_poison_events_total", rl+","+lbl("event", "healed"), rk.Healed)
	}
	ew.family("synergy_fail_closed_total", "counter", "Reads that failed closed (ErrAttack or poisoned fast-fail).")
	for _, rk := range s.Ranks {
		ew.sample("synergy_fail_closed_total", lbl("rank", strconv.Itoa(rk.Rank)), rk.FailClosed)
	}
	ew.family("synergy_chip_repairs_total", "counter", "Completed RepairChip sweeps.")
	for _, rk := range s.Ranks {
		ew.sample("synergy_chip_repairs_total", lbl("rank", strconv.Itoa(rk.Rank)), rk.Repairs)
	}
	ew.family("synergy_scrub_passes_total", "counter", "Scrub scans that reached the end of a rank's data region.")
	for _, rk := range s.Ranks {
		ew.sample("synergy_scrub_passes_total", lbl("rank", strconv.Itoa(rk.Rank)), rk.ScrubPasses)
	}
	ew.family("synergy_scrub_lines_scanned_total", "counter", "Data lines examined by scrub segments.")
	for _, rk := range s.Ranks {
		ew.sample("synergy_scrub_lines_scanned_total", lbl("rank", strconv.Itoa(rk.Rank)), rk.ScrubScanned)
	}
	ew.family("synergy_scrub_lines_corrected_total", "counter", "Data lines corrected during scrub segments.")
	for _, rk := range s.Ranks {
		ew.sample("synergy_scrub_lines_corrected_total", lbl("rank", strconv.Itoa(rk.Rank)), rk.ScrubCorrected)
	}
	ew.family("synergy_metacache_lookups_total", "counter", "Metadata-cache path lookups by result.")
	for _, rk := range s.Ranks {
		rl := lbl("rank", strconv.Itoa(rk.Rank))
		ew.sample("synergy_metacache_lookups_total", rl+","+lbl("result", "hit"), rk.MetaCacheHits)
		ew.sample("synergy_metacache_lookups_total", rl+","+lbl("result", "miss"), rk.MetaCacheMisses)
	}
	ew.family("synergy_metacache_writebacks_total", "counter", "Dirty metadata entries sealed and written back (eviction or flush).")
	for _, rk := range s.Ranks {
		ew.sample("synergy_metacache_writebacks_total", lbl("rank", strconv.Itoa(rk.Rank)), rk.MetaWritebacks)
	}
	ew.family("synergy_metacache_dirty_entries", "gauge", "Metadata-cache entries currently dirty (awaiting writeback).")
	for _, rk := range s.Ranks {
		ew.sample("synergy_metacache_dirty_entries", lbl("rank", strconv.Itoa(rk.Rank)), rk.MetaDirty)
	}
	ew.family("synergy_read_fast_total", "counter", "Clean reads served entirely under the shared lock (optimistic fast path); shared pre-emptive reads count as pre-emptive fixes.")
	for _, rk := range s.Ranks {
		ew.sample("synergy_read_fast_total", lbl("rank", strconv.Itoa(rk.Rank)), rk.FastReads)
	}
	ew.family("synergy_read_gen_retries_total", "counter", "Optimistic read attempts retried after a generation conflict.")
	for _, rk := range s.Ranks {
		ew.sample("synergy_read_gen_retries_total", lbl("rank", strconv.Itoa(rk.Rank)), rk.GenRetries)
	}
	ew.family("synergy_read_escalations_total", "counter", "Optimistic read attempts that escalated to the exclusive slow path, by reason.")
	for _, rk := range s.Ranks {
		rl := lbl("rank", strconv.Itoa(rk.Rank))
		for e, n := range rk.Escalations {
			ew.sample("synergy_read_escalations_total", rl+","+lbl("reason", EscReason(e).String()), n)
		}
	}

	slos := append([]SLOSnapshot(nil), s.SLOs...)
	sort.Slice(slos, func(a, b int) bool { return slos[a].Name < slos[b].Name })
	ew.family("synergy_slo_requests_total", "counter", "Requests evaluated against the tenant's SLOs.")
	for _, sl := range slos {
		ew.sample("synergy_slo_requests_total", lbl("slo", sl.Name), sl.Requests)
	}
	ew.family("synergy_slo_errors_total", "counter", "Service-caused failures (availability budget burn).")
	for _, sl := range slos {
		ew.sample("synergy_slo_errors_total", lbl("slo", sl.Name), sl.Errors)
	}
	ew.family("synergy_slo_slow_requests_total", "counter", "Requests over the latency objective (latency budget burn).")
	for _, sl := range slos {
		ew.sample("synergy_slo_slow_requests_total", lbl("slo", sl.Name), sl.Slow)
	}
	ew.family("synergy_slo_availability", "gauge", "Availability over the slow burn window (1 when idle).")
	for _, sl := range slos {
		ew.gauge("synergy_slo_availability", lbl("slo", sl.Name), sl.Availability)
	}
	ew.family("synergy_slo_latency_compliance", "gauge", "Fraction of slow-window requests under the latency objective.")
	for _, sl := range slos {
		ew.gauge("synergy_slo_latency_compliance", lbl("slo", sl.Name), sl.LatencyCompliance)
	}
	ew.family("synergy_slo_burn_rate", "gauge", "Error-budget burn rate by objective and window (1 = sustainable).")
	for _, sl := range slos {
		l := lbl("slo", sl.Name)
		ew.gauge("synergy_slo_burn_rate", l+","+lbl("objective", "availability")+","+lbl("window", "fast"), sl.AvailabilityFastBurn)
		ew.gauge("synergy_slo_burn_rate", l+","+lbl("objective", "availability")+","+lbl("window", "slow"), sl.AvailabilitySlowBurn)
		ew.gauge("synergy_slo_burn_rate", l+","+lbl("objective", "latency")+","+lbl("window", "fast"), sl.LatencyFastBurn)
		ew.gauge("synergy_slo_burn_rate", l+","+lbl("objective", "latency")+","+lbl("window", "slow"), sl.LatencySlowBurn)
	}
	ew.family("synergy_slo_budget_remaining", "gauge", "Fraction of error budget left at the slow-window burn rate.")
	for _, sl := range slos {
		l := lbl("slo", sl.Name)
		ew.gauge("synergy_slo_budget_remaining", l+","+lbl("objective", "availability"), sl.AvailabilityBudgetRemaining)
		ew.gauge("synergy_slo_budget_remaining", l+","+lbl("objective", "latency"), sl.LatencyBudgetRemaining)
	}
	ew.family("synergy_slo_alert", "gauge", "1 while an objective's fast and slow burn rates both exceed their thresholds.")
	for _, sl := range slos {
		v := uint64(0)
		if sl.Alert {
			v = 1
		}
		ew.sample("synergy_slo_alert", lbl("slo", sl.Name), v)
	}

	ew.family("synergy_flight_spans_offered_total", "counter", "Completed spans offered to the flight recorder.")
	ew.family("synergy_flight_spans_captured_total", "counter", "Spans the flight recorder retained as anomalous.")
	ew.family("synergy_flight_captured_by_anomaly_total", "counter", "Retained spans by anomaly class (multi-class spans count once per class).")
	ew.family("synergy_flight_retained_spans", "gauge", "Records currently held in the flight-recorder rings.")
	ew.family("synergy_flight_slow_threshold_seconds", "gauge", "Rolling latency cutoff above which a span counts as slow (0 until armed).")
	if fs := s.Flight; fs != nil {
		ew.printf("synergy_flight_spans_offered_total %d\n", fs.Offered)
		ew.printf("synergy_flight_spans_captured_total %d\n", fs.Captured)
		anomalies := make([]string, 0, len(fs.CapturedByAnomaly))
		for name := range fs.CapturedByAnomaly {
			anomalies = append(anomalies, name)
		}
		sort.Strings(anomalies)
		for _, name := range anomalies {
			ew.sample("synergy_flight_captured_by_anomaly_total", lbl("anomaly", name), fs.CapturedByAnomaly[name])
		}
		ew.printf("synergy_flight_retained_spans %d\n", fs.Retained)
		ew.printf("synergy_flight_slow_threshold_seconds %s\n",
			strconv.FormatFloat(float64(fs.SlowThresholdNanos)/1e9, 'g', -1, 64))
	}
	return ew.err
}

// forEachOp visits ops in a stable (sorted) order.
func forEachOp(s Snapshot, fn func(name string, op OpSnapshot)) {
	names := make([]string, 0, len(s.Ops))
	for name := range s.Ops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn(name, s.Ops[name])
	}
}

func lbl(k, v string) string { return k + `="` + v + `"` }

// errWriter accumulates the first write error so the exporter body
// stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func (e *errWriter) family(name, typ, help string) {
	e.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (e *errWriter) sample(name, labels string, v uint64) {
	e.printf("%s{%s} %d\n", name, labels, v)
}

// gauge emits a float-valued sample (shortest round-trip rendering).
func (e *errWriter) gauge(name, labels string, v float64) {
	e.printf("%s{%s} %s\n", name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

// histogram emits the cumulative-bucket exposition of h under the base
// name and label set, with bounds converted from nanoseconds to
// seconds. Empty buckets are skipped (the cumulative count is carried
// forward), keeping the page compact without changing its meaning.
func (e *errWriter) histogram(base, labels string, h HistogramSnapshot) {
	var cum uint64
	for i, n := range h.Buckets {
		cum += n
		if n == 0 {
			continue
		}
		le := strconv.FormatFloat(float64(BucketUpperNanos(i))/1e9, 'g', -1, 64)
		e.printf("%s_bucket{%s,le=%q} %d\n", base, labels, le, cum)
	}
	e.printf("%s_bucket{%s,le=\"+Inf\"} %d\n", base, labels, h.Count)
	e.printf("%s_sum{%s} %s\n", base, labels,
		strconv.FormatFloat(float64(h.SumNanos)/1e9, 'g', -1, 64))
	e.printf("%s_count{%s} %d\n", base, labels, h.Count)
}
