package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"synergy"
)

// opOrder fixes the display order: engine hot ops first, then the
// server's RPC surface, then maintenance.
var opOrder = []string{
	"read", "write",
	"rpc_read", "rpc_write", "rpc_read_batch", "rpc_write_batch",
	"rpc_scrub", "rpc_repair", "rpc_rejected",
	"scrub", "repair_chip", "trial",
}

// stageOrder follows the secure-read pipeline of DESIGN.md §4: fetch
// the counter, walk the tree, verify the data MAC, reconstruct on
// mismatch, decrypt.
var stageOrder = []string{"counter_fetch", "tree_walk", "mac_verify", "reconstruct", "otp"}

// runTop is `synergy top`: a live, top-style console view of a running
// synergy metrics endpoint (synergy.ServeMetrics, or any process
// started with -metrics). It polls /metrics.json, diffs consecutive
// snapshots, and renders per-operation rates, the Fig. 5-style
// secure-read stage breakdown, and a per-rank chip-correction grid.
//
//	synergy chaos -duration 60s -metrics localhost:9091 &
//	synergy top -addr localhost:9091
//	synergy top -addr localhost:9091 -interval 500ms -count 10
func runTop(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("top", stderr)
	addr := fs.String("addr", "127.0.0.1:9091", "metrics endpoint to poll (host:port)")
	interval := fs.Duration("interval", time.Second, "polling interval")
	count := fs.Int("count", 0, "frames to render before exiting (0 = run until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	url := "http://" + *addr + "/metrics.json"
	client := &http.Client{Timeout: 5 * time.Second}
	prev, err := fetchSnapshot(ctx, client, url)
	if err != nil {
		return fmt.Errorf("%s: %w", url, err)
	}
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for frame := 0; *count == 0 || frame < *count; {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
		}
		cur, err := fetchSnapshot(ctx, client, url)
		if err != nil {
			return fmt.Errorf("%s: %w", url, err)
		}
		if restarted(prev, cur) {
			// The endpoint's counters regressed: the monitored process
			// restarted since the last poll. Diffing against the old
			// baseline would clamp every rate to zero and silently
			// render the new process as idle — resync instead and
			// spend this poll rebuilding the baseline.
			fmt.Fprintf(stdout, "synergy-top: endpoint restarted — baseline resynced\n\n")
			prev = cur
			continue
		}
		render(stdout, cur.Sub(prev), cur.Elapsed(prev))
		prev = cur
		frame++
	}
	return nil
}

// restarted reports whether cur's monotonic totals regressed below
// prev's — impossible within one process lifetime, so it means the
// endpoint restarted and reset its registry.
func restarted(prev, cur synergy.TelemetrySnapshot) bool {
	for name, p := range prev.Ops {
		c := cur.Ops[name]
		if c.Count < p.Count || c.Errors < p.Errors {
			return true
		}
	}
	for _, pr := range prev.Ranks {
		if pr.Rank >= len(cur.Ranks) {
			return true
		}
		cr := cur.Ranks[pr.Rank]
		if cr.Poisoned < pr.Poisoned || cr.Repairs < pr.Repairs || cr.ScrubScanned < pr.ScrubScanned {
			return true
		}
		for chip, n := range pr.Corrections {
			if cr.Corrections[chip] < n {
				return true
			}
		}
	}
	return false
}

func fetchSnapshot(ctx context.Context, client *http.Client, url string) (synergy.TelemetrySnapshot, error) {
	var snap synergy.TelemetrySnapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return snap, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("status %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// render writes one frame: the delta between two snapshots over the
// elapsed window. Pure function of its inputs, so tests can feed
// synthetic deltas.
func render(w io.Writer, d synergy.TelemetrySnapshot, elapsed time.Duration) {
	sec := elapsed.Seconds()
	if sec <= 0 {
		sec = 1
	}
	fmt.Fprintf(w, "synergy-top  %s window\n", elapsed.Round(time.Millisecond))

	fmt.Fprintf(w, "  %-15s %12s %10s %10s %10s\n", "OP", "OPS/S", "ERR/S", "MEAN", "P99")
	for _, name := range opOrder {
		op, ok := d.Ops[name]
		if !ok || op.Count == 0 && op.Errors == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-15s %12.0f %10.0f %10s %10s\n",
			name, float64(op.Count)/sec, float64(op.Errors)/sec,
			fmtDur(op.Latency.Mean()), fmtDur(op.Latency.Quantile(0.99)))
	}

	// Stage shares are of summed stage time, not wall time: stages are
	// sampled, so relative weight is the meaningful number (Fig. 5).
	var stageTotal time.Duration
	for _, name := range stageOrder {
		st := d.Stages[name]
		stageTotal += time.Duration(st.Count) * st.Mean()
	}
	if stageTotal > 0 {
		fmt.Fprintf(w, "  %-13s %7s %10s %10s   (sampled)\n", "READ STAGE", "SHARE", "MEAN", "P99")
		for _, name := range stageOrder {
			st := d.Stages[name]
			if st.Count == 0 {
				continue
			}
			share := float64(time.Duration(st.Count)*st.Mean()) / float64(stageTotal) * 100
			fmt.Fprintf(w, "  %-13s %6.1f%% %10s %10s\n",
				name, share, fmtDur(st.Mean()), fmtDur(st.Quantile(0.99)))
		}
	}

	// SLO and flight-recorder sections are point-in-time views (Sub
	// passes them through), not window deltas.
	for _, s := range d.SLOs {
		status := "ok"
		if s.Alert {
			status = "ALERT(" + s.AlertObjective + ")"
		}
		fmt.Fprintf(w, "  slo %-10s avail %8.4f%% budget %3.0f%%  lat-ok %8.4f%% budget %3.0f%%  burn a %.1f/%.1f l %.1f/%.1f  %s\n",
			s.Name, 100*s.Availability, 100*s.AvailabilityBudgetRemaining,
			100*s.LatencyCompliance, 100*s.LatencyBudgetRemaining,
			s.AvailabilityFastBurn, s.AvailabilitySlowBurn,
			s.LatencyFastBurn, s.LatencySlowBurn, status)
	}
	if f := d.Flight; f != nil && f.Offered > 0 {
		var an []string
		for _, k := range []string{"slow", "error", "fail_closed", "escalated", "shed", "backpressure"} {
			if n := f.CapturedByAnomaly[k]; n > 0 {
				an = append(an, fmt.Sprintf("%s %d", k, n))
			}
		}
		detail := ""
		if len(an) > 0 {
			detail = "  [" + strings.Join(an, ", ") + "]"
		}
		fmt.Fprintf(w, "  flight  %d offered, %d captured, %d retained, slow>%s%s\n",
			f.Offered, f.Captured, f.Retained,
			fmtDur(time.Duration(f.SlowThresholdNanos)), detail)
	}

	for _, r := range d.Ranks {
		if rankQuiet(r) {
			continue
		}
		chips := make([]string, len(r.Corrections))
		for c, n := range r.Corrections {
			chips[c] = fmt.Sprintf("%d", n)
		}
		fmt.Fprintf(w, "  rank %d  corr/chip [%s]  preempt %d  recon %d/%d  poison %d  heal %d  failclosed %d  repair %d  scrubbed %d\n",
			r.Rank, strings.Join(chips, " "), r.Preemptive,
			r.Reconstructions, r.ReconstructionAttempts,
			r.Poisoned, r.Healed, r.FailClosed, r.Repairs, r.ScrubScanned)
	}
	fmt.Fprintln(w)
}

// rankQuiet reports whether a rank delta has nothing worth a row.
func rankQuiet(r synergy.TelemetryRankSnapshot) bool {
	for _, n := range r.Corrections {
		if n > 0 {
			return false
		}
	}
	return r.Preemptive == 0 && r.Reconstructions == 0 && r.ReconstructionAttempts == 0 &&
		r.Poisoned == 0 && r.Healed == 0 && r.FailClosed == 0 && r.Repairs == 0 &&
		r.ScrubScanned == 0
}

// fmtDur renders a latency with ns/µs/ms granularity and no noise
// digits ("310ns", "1.2µs").
func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "-"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
