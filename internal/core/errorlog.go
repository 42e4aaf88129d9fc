package core

import (
	"fmt"
	"sync"
)

// This file implements the §IV-B denial-of-service countermeasure: the
// memory controller logs every corrected error, and statistical
// analysis over the log distinguishes naturally occurring faults from
// an adversary deliberately planting correctable errors to burn MAC
// recomputation latency.

// ErrorEvent is one corrected-error record.
type ErrorEvent struct {
	// Seq is the engine's access sequence number (reads+writes served)
	// at correction time — the log's notion of time.
	Seq uint64
	// Region and Chip locate the repair.
	Region Region
	Chip   int
	// Line is the module line address that was repaired.
	Line uint64
	// UsedParityP marks corrections that needed the parity-of-parities.
	UsedParityP bool
}

// ErrorLog is a bounded ring of corrected-error events with the
// aggregate statistics the §IV-B analysis needs. The zero value is not
// usable; each rank owns one. The log carries its own lock so the
// platform's security apparatus can inspect and Analyze it while the
// engine serves traffic.
type ErrorLog struct {
	mu      sync.Mutex
	events  []ErrorEvent
	next    int
	total   uint64
	dropped uint64
	byChip  [9]uint64
}

const defaultErrorLogCapacity = 1024

func newErrorLog(capacity int) *ErrorLog {
	if capacity <= 0 {
		capacity = defaultErrorLogCapacity
	}
	return &ErrorLog{events: make([]ErrorEvent, 0, capacity)}
}

func (l *ErrorLog) add(e ErrorEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.events) < cap(l.events) {
		l.events = append(l.events, e)
	} else {
		l.events[l.next] = e
		l.next = (l.next + 1) % cap(l.events)
		l.dropped++
	}
	l.total++
	if e.Chip >= 0 && e.Chip < len(l.byChip) {
		l.byChip[e.Chip]++
	}
}

// Total returns the number of corrections ever logged (not capped by
// the ring capacity).
func (l *ErrorLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Capacity returns the ring's capacity: the maximum number of events
// Events can return.
func (l *ErrorLog) Capacity() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return cap(l.events)
}

// Dropped returns the number of events evicted from the ring to make
// room for newer ones. A long run that corrects more than Capacity
// errors under-reports in Events by exactly this amount; Total, ByChip
// and Analyze are unaffected by eviction.
func (l *ErrorLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// ByChip returns per-chip correction counts.
func (l *ErrorLog) ByChip() [9]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byChip
}

// Events returns the retained events, oldest first. The ring keeps the
// most recent Capacity() corrections: once full, each new event evicts
// the oldest retained one, so the result is a sliding window ending at
// the newest correction, with Seq values non-decreasing. Evicted events
// stay counted in Total and ByChip; Dropped reports how many were
// evicted, so len(Events()) == Total() - Dropped() always holds (i.e.
// the window silently under-reports Total by exactly Dropped events).
func (l *ErrorLog) Events() []ErrorEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.events) < cap(l.events) {
		// Ring not yet full: events are already in insertion order.
		return append([]ErrorEvent(nil), l.events...)
	}
	out := make([]ErrorEvent, 0, len(l.events))
	out = append(out, l.events[l.next:]...)
	return append(out, l.events[:l.next]...)
}

// Assessment classifies the corrected-error history.
type Assessment int

const (
	// AssessmentQuiet: too few corrections to say anything.
	AssessmentQuiet Assessment = iota
	// AssessmentNaturalFault: the pattern matches a hardware fault —
	// corrections concentrated on a single chip.
	AssessmentNaturalFault
	// AssessmentSuspectedDoS: the pattern matches adversarial error
	// planting — a high correction rate spread across multiple chips,
	// which no single-chip failure mode produces.
	AssessmentSuspectedDoS
)

func (a Assessment) String() string {
	switch a {
	case AssessmentQuiet:
		return "quiet"
	case AssessmentNaturalFault:
		return "natural-fault"
	case AssessmentSuspectedDoS:
		return "suspected-dos"
	default:
		return fmt.Sprintf("Assessment(%d)", int(a))
	}
}

// Analysis is the result of the §IV-B statistical check.
type Analysis struct {
	Assessment Assessment
	// DominantChip is the chip with the most corrections (-1 if none).
	DominantChip int
	// DominantShare is that chip's share of all corrections.
	DominantShare float64
	// RatePerMAccess is corrections per million accesses over the
	// engine's lifetime.
	RatePerMAccess float64
}

// Analyze applies the §IV-B heuristic. Naturally occurring DRAM faults
// within the engine's single-chip correction model concentrate on one
// chip (Table I modes are all per-chip); an adversary flipping bits
// wherever the bus allows produces corrections across chips at rates
// far beyond field FIT rates.
//
// The verdict is over the log's lifetime, not the retained window: it
// reads the per-chip totals (ByChip), which ring eviction never
// reduces. Corrections on three chips therefore count however far
// apart they happened, so independent transients spread over a long
// run can yield AssessmentSuspectedDoS with no attacker present.
//
// accesses == 0 is well-defined: RatePerMAccess is reported as 0 (no
// access baseline to rate against) and the assessment — which depends
// only on the correction counts and their chip spread, never on the
// rate — is unaffected.
func (l *ErrorLog) Analyze(accesses uint64) Analysis {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := Analysis{DominantChip: -1}
	if accesses > 0 {
		a.RatePerMAccess = float64(l.total) / float64(accesses) * 1e6
	}
	if l.total == 0 {
		return a
	}
	var maxChip int
	var maxCount, chipsWithErrors uint64
	for c, n := range l.byChip {
		if n > 0 {
			chipsWithErrors++
		}
		if n > maxCount {
			maxCount, maxChip = n, c
		}
	}
	a.DominantChip = maxChip
	a.DominantShare = float64(maxCount) / float64(l.total)

	switch {
	case l.total < 4:
		a.Assessment = AssessmentQuiet
	case a.DominantShare >= 0.9:
		// One chip dominates: consistent with a natural chip fault
		// (and with the scoreboard's own condemnation logic).
		a.Assessment = AssessmentNaturalFault
	case chipsWithErrors >= 3:
		// Corrections on ≥3 chips over the log's lifetime (evicted
		// events included): no single Table I failure mode does that;
		// flag for the security apparatus.
		a.Assessment = AssessmentSuspectedDoS
	default:
		a.Assessment = AssessmentNaturalFault
	}
	return a
}
