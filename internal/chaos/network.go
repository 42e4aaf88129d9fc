package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"time"

	"synergy/internal/core"
	"synergy/internal/server"
	"synergy/internal/telemetry"
)

// This file is the harness's network transport: with Config.Network
// the same deterministic traffic rides an in-process synergy-server
// (HTTP/JSON RPC) instead of calling the Array directly, so the zero
// -SDC invariant is checked end to end through the wire contract —
// and RunDegraded drives the full degraded-mode story (poison
// fast-fail, load shedding, repair, recovery) as an RPC client.

// startNetwork wraps arr in an in-process synergy-server and returns
// a client bound to it. Admission is configured out of the way
// (generous queue, patient wait) and shedding is parked out of reach:
// chaos traffic IS a deliberate corrected-error storm, and this mode
// exercises the engine through the wire, not the shed policy —
// RunDegraded covers that separately.
func startNetwork(arr *core.Array) (*server.Server, *server.Client, error) {
	srv, err := server.New(server.Config{
		Tenants:            []server.TenantConfig{{Name: "chaos", Token: "chaos", Backend: arr}},
		QueueDepth:         1024,
		QueueWait:          250 * time.Millisecond,
		ShedMinCorrections: math.MaxUint64,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: network server: %w", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, nil, fmt.Errorf("chaos: network server: %w", err)
	}
	return srv, server.NewClient(srv.Addr, "chaos"), nil
}

// writeLine routes one write through the active transport.
func (h *harness) writeLine(line uint64, data []byte) error {
	if h.client != nil {
		return h.client.Write(context.Background(), line, data)
	}
	return h.arr.Write(line, data)
}

// readLine routes one read through the active transport.
func (h *harness) readLine(line uint64, buf []byte) error {
	if h.client != nil {
		_, err := h.client.Read(context.Background(), line, buf)
		return err
	}
	_, err := h.arr.Read(line, buf)
	return err
}

// DegradedReport is the outcome of RunDegraded.
type DegradedReport struct {
	// ShedEngaged is true once a data-plane request was refused with
	// ErrShedding while the storm ran.
	ShedEngaged bool
	// ScrubUnderLoad is the scrub report taken over RPC while shedding
	// was active (control plane must stay reachable).
	ScrubUnderLoad core.ScrubReport
	// Reads counts verified data reads; FailClosed counts reads the
	// engine correctly refused.
	Reads, FailClosed uint64
	// PoisonTraceCaptured is true when the flight recorder retained the
	// fail-closed read with engine stage-level span events.
	PoisonTraceCaptured bool
	// ShedAnomalyCaptured is true when at least one shed rejection was
	// retained by the flight recorder.
	ShedAnomalyCaptured bool
	// ReadyzFlipped is true when /readyz answered 503 while shedding
	// was engaged; ReadyzRecovered when it answered 200 again after the
	// cycle completed.
	ReadyzFlipped, ReadyzRecovered bool
	// SDCs and Violations mirror Report: both must stay empty.
	SDCs       []string
	Violations []string
}

// RunDegraded drives one complete poison → shed → repair → recover
// cycle against a synergy-server, entirely as an RPC client:
//
//  1. Seed a keyspace and poison one line with a double-chip fault —
//     the first read must fail closed, later reads must fast-fail
//     with core.ErrPoisoned across the wire.
//  2. Storm: correctable single-chip faults spread over ≥3 chips (the
//     §IV-B suspected-DoS signature) until the server sheds data
//     traffic (ErrShedding). While shed, the control plane must still
//     serve: a full scrub runs over RPC under load.
//  3. Recover: the storm stops, RepairChip runs over RPC, a write
//     heals the poisoned line, and shedding must disengage on its own.
//  4. Verify: every line reads back exactly its shadow — zero SDCs.
func RunDegraded(ctx context.Context, seed int64) (*DegradedReport, error) {
	const lines = 64
	reg := telemetry.New()
	srv, err := server.New(server.Config{
		Tenants: []server.TenantConfig{{
			Name:  "degraded",
			Token: "degraded",
			Array: core.Config{DataLines: lines, Ranks: 1},
		}},
		AllowInject:        true,
		AnalyzeEvery:       10 * time.Millisecond,
		ShedMinCorrections: 4,
		// Observability is part of the cycle under test: every request
		// is deep-traced, anomalies land in the flight recorder, and
		// the SLO windows are shrunk so the storm's burn alert ages out
		// within the run instead of pinning /readyz at 503 for minutes.
		Telemetry:        reg,
		TraceSampleEvery: 1,
		SLO: telemetry.SLOConfig{
			BucketWidth: 100 * time.Millisecond,
			FastWindow:  500 * time.Millisecond,
			SlowWindow:  2 * time.Second,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: degraded server: %w", err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("chaos: degraded server: %w", err)
	}
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Close(cctx)
	}()
	c := server.NewClient(srv.Addr, "degraded")
	defer c.Close()

	rep := &DegradedReport{}
	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}

	// 1. Seed every line; the shadow is the pattern byte per line.
	shadow := make([]byte, lines)
	for i := uint64(0); i < lines; i++ {
		shadow[i] = byte(seed) + byte(i)
		if err := c.Write(ctx, i, fill(i, shadow[i])); err != nil {
			return nil, fmt.Errorf("chaos: seeding line %d over RPC: %w", i, err)
		}
	}

	// Poison: a double-chip fault exceeds chipkill's budget.
	const victim = 9
	buf := make([]byte, core.LineSize)
	if err := c.Inject(ctx, victim, []int{2, 5}, 0xFF); err != nil {
		return nil, fmt.Errorf("chaos: poison inject: %w", err)
	}
	// The double-fault read carries an explicit traceparent: the
	// fail-closed answer must come back captured, with the engine's
	// stage-level span events retained in the flight recorder.
	tr := &server.Trace{}
	if _, err := c.Read(server.WithTrace(ctx, tr), victim, buf); !core.IsFailClosed(err) {
		violate("double-fault read returned %v, want fail-closed", err)
	} else {
		rep.FailClosed++
	}
	if !tr.Captured {
		violate("fail-closed traced read was not captured by the flight recorder")
	}
	// Look the record up now, by the read's own trace ID. The recorder
	// is a ring — one rank, so 64 slots — and every later request of the
	// cycle is deep-traced too: control-plane calls and reads that
	// escalate on a cold metadata cache are retained as well, and a
	// host-speed-dependent number of storm rounds (124 retained records
	// on the host this was fixed on) laps the ring before the cycle ends.
	trace, _, ok := telemetry.ParseTraceparent(tr.Traceparent)
	if !ok {
		violate("traced read carried an unparsable traceparent %q", tr.Traceparent)
	}
	isStage := func(e telemetry.FlightEvent) bool { return e.Kind == "stage" }
	for _, r := range reg.Flight().Records() {
		if ok && r.TraceID == trace.String() && slices.Contains(r.Anomalies, "fail_closed") && slices.ContainsFunc(r.Events, isStage) {
			rep.PoisonTraceCaptured = true
		}
	}
	if !rep.PoisonTraceCaptured {
		violate("flight recorder holds no fail-closed record with stage events")
	}
	if _, err := c.Read(ctx, victim, buf); !errors.Is(err, core.ErrPoisoned) {
		violate("poisoned line fast-fail returned %v, want ErrPoisoned", err)
	} else {
		rep.FailClosed++
	}

	// 2. Storm until the server sheds. Single-chip faults are
	// correctable, so the storm lines' contents survive it.
	stormLines := []uint64{20, 21, 22, 23}
	stormChips := []int{1, 3, 5, 7}
	deadline := time.Now().Add(15 * time.Second)
	readyz := 0 // the last /readyz status seen after a shed response
storm:
	for {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			if rep.ShedEngaged {
				violate("/readyz answered %d while shedding, want 503", readyz)
			} else {
				violate("shedding never engaged under a %d-chip storm", len(stormChips))
			}
			break
		}
		for i, l := range stormLines {
			if err := c.Inject(ctx, l, []int{stormChips[i]}, 0x01); err != nil {
				return nil, fmt.Errorf("chaos: storm inject: %w", err)
			}
			_, err := c.Read(ctx, l, buf)
			switch {
			case err == nil:
				rep.Reads++
				if !bytes.Equal(buf, fill(l, shadow[l])) {
					rep.SDCs = append(rep.SDCs, fmt.Sprintf("storm line %d served wrong data", l))
				}
			case errors.Is(err, server.ErrShedding):
				rep.ShedEngaged = true
				// A shedding tenant must take the service out of
				// rotation: /readyz answers 503 while the data plane
				// refuses. The watcher re-evaluates every AnalyzeEvery
				// and can disengage before the probe lands, so the storm
				// goes on until a probe sees the flip or the deadline
				// passes.
				if readyz = getStatus(ctx, "http://"+srv.Addr+"/readyz"); readyz == http.StatusServiceUnavailable {
					rep.ReadyzFlipped = true
					break storm
				}
			default:
				violate("storm read(%d): %v", l, err)
			}
		}
	}

	// Control plane under load: scrub the whole keyspace over RPC
	// while the data plane is (or was just) shed. The poisoned victim
	// must be reported, not hidden.
	srep, err := c.Scrub(ctx)
	if err != nil {
		violate("scrub under load: %v", err)
	} else {
		rep.ScrubUnderLoad = srep
		found := false
		for _, p := range srep.Poisoned {
			if p == victim {
				found = true
			}
		}
		if !found {
			violate("scrub under load did not report poisoned line %d (got %v)", victim, srep.Poisoned)
		}
	}

	// 3. Recover: storm is over. Repair the most-blamed chip over RPC,
	// heal the poisoned line with a write, and wait for the watcher to
	// disengage shedding (the per-window correction delta drains).
	if err := c.RepairChip(ctx, 0, stormChips[0]); err != nil {
		violate("RepairChip over RPC: %v", err)
	}
	shadow[victim] ^= 0xA5
	deadline = time.Now().Add(15 * time.Second)
	for {
		err := c.Write(ctx, victim, fill(victim, shadow[victim]))
		if err == nil {
			break
		}
		if !server.IsRetryable(err) {
			violate("healing write: %v", err)
			break
		}
		if time.Now().After(deadline) {
			violate("shedding never disengaged after the storm stopped")
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The shed rejections are the newest anomalies at this point; the
	// verification pass below retains up to one record per line (each
	// read escalates on the cache RepairChip just dropped) and would lap
	// them out of the ring.
	for _, r := range reg.Flight().Records() {
		if slices.Contains(r.Anomalies, "shed") {
			rep.ShedAnomalyCaptured = true
		}
	}
	if !rep.ShedAnomalyCaptured {
		violate("flight recorder holds no shed rejection")
	}

	// 4. Verify every line against the shadow — the zero-SDC bar.
	for i := uint64(0); i < lines; i++ {
		if _, err := c.Read(ctx, i, buf); err != nil {
			if server.IsRetryable(err) {
				// Give the watcher one more window, then retry once.
				time.Sleep(50 * time.Millisecond)
				if _, err = c.Read(ctx, i, buf); err != nil {
					violate("final read(%d): %v", i, err)
					continue
				}
			} else {
				violate("final read(%d): %v", i, err)
				continue
			}
		}
		rep.Reads++
		if !bytes.Equal(buf, fill(i, shadow[i])) {
			rep.SDCs = append(rep.SDCs, fmt.Sprintf("line %d: wrong data after recovery", i))
		}
	}
	if left := srv.Tenant("degraded").Poisoned(); len(left) != 0 {
		violate("poisoned lines survived recovery: %v", left)
	}

	// With shedding disengaged and the storm's SLO burn aged out of
	// its (shrunken) windows, the service must return to rotation.
	deadline = time.Now().Add(15 * time.Second)
	for {
		if code := getStatus(ctx, "http://"+srv.Addr+"/readyz"); code == http.StatusOK {
			rep.ReadyzRecovered = true
			break
		}
		if time.Now().After(deadline) {
			violate("/readyz never recovered to 200 after the cycle")
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	return rep, nil
}

// getStatus fetches url and returns the HTTP status (0 on transport
// error).
func getStatus(ctx context.Context, url string) int {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}
