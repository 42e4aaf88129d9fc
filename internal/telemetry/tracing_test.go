package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	if tid.IsZero() || sid.IsZero() {
		t.Fatal("minted IDs must be non-zero")
	}
	h := Traceparent(tid, sid)
	if len(h) != 55 {
		t.Fatalf("traceparent %q: len %d, want 55", h, len(h))
	}
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent %q: want version 00, sampled flag 01", h)
	}
	gotT, gotS, ok := ParseTraceparent(h)
	if !ok || gotT != tid || gotS != sid {
		t.Fatalf("round trip %q: got (%v %v %v), want (%v %v true)", h, gotT, gotS, ok, tid, sid)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := Traceparent(NewTraceID(), NewSpanID())
	bad := []string{
		"",
		"00",
		valid[:54],                          // truncated
		valid + "0",                         // too long
		"ff" + valid[2:],                    // version ff is invalid
		"zz" + valid[2:],                    // non-hex version
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-00000000000000000000000000000000-" + valid[36:],                    // zero trace ID
		valid[:36] + "0000000000000000-01",                                     // zero span ID
		"00-" + strings.Repeat("g", 32) + "-" + valid[36:],                     // non-hex trace
		valid[:36] + strings.Repeat("g", 16) + "-01",                           // non-hex span
		strings.ToUpper(valid[:3]) + valid[3:35] + strings.ToUpper(valid[35:]), // no-op edit guard below
	}
	for _, h := range bad[:len(bad)-1] {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", h)
		}
	}
	// A different version (01) with valid IDs is accepted per spec.
	if _, _, ok := ParseTraceparent("01" + valid[2:]); !ok {
		t.Errorf("version 01 rejected, want accepted")
	}
}

func TestSpanNilSafety(t *testing.T) {
	var sp *Span
	sp.StageEvent(StageCounterFetch, time.Microsecond)
	sp.Escalation(EscCacheMiss)
	sp.Flag(AnomalyShed)
	sp.SetError("x")
	sp.Locate(3, 99)
	if sp.IsDeep() {
		t.Error("nil span reports deep")
	}
	if sp.Anomalies() != 0 || sp.End() != 0 || sp.Events() != nil {
		t.Error("nil span accessors must return zero values")
	}
}

func TestBeginSpanMintsAndContinues(t *testing.T) {
	// No incoming context: a fresh trace, no parent.
	sp := BeginSpan(OpRPCRead, TraceID{}, SpanID{})
	if sp.Trace.IsZero() || sp.ID.IsZero() {
		t.Fatal("BeginSpan must mint IDs")
	}
	if !sp.Parent.IsZero() {
		t.Fatal("fresh span must have no parent")
	}
	// Incoming context: same trace, incoming span becomes the parent.
	tid, psid := NewTraceID(), NewSpanID()
	sp2 := BeginSpan(OpRPCWrite, tid, psid)
	if sp2.Trace != tid || sp2.Parent != psid {
		t.Fatalf("continued span: trace %v parent %v, want %v %v", sp2.Trace, sp2.Parent, tid, psid)
	}
	if sp2.ID == psid || sp2.ID.IsZero() {
		t.Fatal("continued span needs its own span ID")
	}
}

func TestSpanEventsAndAnomalies(t *testing.T) {
	sp := BeginSpan(OpRPCRead, TraceID{}, SpanID{})
	sp.StageEvent(StageCounterFetch, 100*time.Nanosecond)
	sp.StageEvent(StageMACVerify, 200*time.Nanosecond)
	sp.Escalation(EscMismatch)
	sp.Flag(AnomalyFailClosed)
	sp.SetError("poisoned")
	sp.Locate(2, 41)
	ev := sp.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events, want 3", len(ev))
	}
	if ev[0].Kind != EventStage || ev[0].Stage != StageCounterFetch || ev[0].Dur != 100*time.Nanosecond {
		t.Errorf("event 0 = %+v, want counter-fetch stage", ev[0])
	}
	if ev[2].Kind != EventEscalation || ev[2].Reason != EscMismatch {
		t.Errorf("event 2 = %+v, want mismatch escalation", ev[2])
	}
	want := AnomalyEscalated | AnomalyFailClosed
	if sp.Anomalies() != want {
		t.Errorf("anomalies = %v, want %v", sp.Anomalies().Labels(), want.Labels())
	}
	d := sp.End()
	if d <= 0 {
		t.Error("End must freeze a positive duration")
	}
	if sp.End() != d {
		t.Error("End must be idempotent")
	}
}

func TestSpanEventOverflowCounts(t *testing.T) {
	sp := BeginSpan(OpRPCRead, TraceID{}, SpanID{})
	for i := 0; i < MaxSpanEvents+5; i++ {
		sp.Escalation(EscCacheMiss)
	}
	if n := len(sp.Events()); n != MaxSpanEvents {
		t.Fatalf("retained %d events, want cap %d", n, MaxSpanEvents)
	}
	rec := sp.record(AnomalyEscalated)
	if rec.EventsDropped != 5 {
		t.Fatalf("EventsDropped = %d, want 5", rec.EventsDropped)
	}
}

func TestAnomalyLabels(t *testing.T) {
	got := (AnomalySlow | AnomalyShed | AnomalyRequested).Labels()
	want := map[string]bool{"slow": true, "shed": true, "requested": true}
	if len(got) != len(want) {
		t.Fatalf("labels = %v", got)
	}
	for _, l := range got {
		if !want[l] {
			t.Fatalf("unexpected label %q in %v", l, got)
		}
	}
	if len(Anomaly(0).Labels()) != 0 {
		t.Error("zero anomaly set must have no labels")
	}
}
