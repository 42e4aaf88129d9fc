package core

import (
	"context"
	"sync"
	"time"
)

// Scrubber runs periodic background scrub passes over an Array. It is
// created by Array.StartScrubber and owns one goroutine. A pass that a
// cancelled context interrupts is not discarded: per-rank cursors
// record how far it got, and the next tick resumes from there, so slow
// patrol intervals on big arrays still converge on full coverage.
type Scrubber struct {
	a        *Array
	interval time.Duration
	cancel   context.CancelFunc
	done     chan struct{}

	mu      sync.Mutex
	cursors []uint64    // next rank-local line to scan, per rank
	running ScrubReport // accumulated over the current (partial) pass
	last    ScrubReport // report of the most recently completed pass
	passes  uint64      // completed passes
}

// StartScrubber launches a background patrol scrubber that performs
// one full scrub pass per interval tick. The scrubber stops when ctx
// is cancelled or Stop is called; both shut it down gracefully —
// an in-flight pass is interrupted at the next cancellation check and
// its progress is kept for resumption. A non-positive interval falls
// back to a one-second patrol tick. Pair with Array.Scrub for one-shot
// foreground passes.
func (a *Array) StartScrubber(ctx context.Context, interval time.Duration) *Scrubber {
	if ctx == nil {
		ctx = context.Background()
	}
	if interval <= 0 {
		interval = time.Second
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &Scrubber{
		a:        a,
		interval: interval,
		cancel:   cancel,
		done:     make(chan struct{}),
		cursors:  make([]uint64, len(a.ranks)),
	}
	a.scrubbers.Add(1)
	go s.run(sctx)
	return s
}

// Stop cancels the scrubber and waits for its goroutine to exit. Safe
// to call more than once and after the parent context was cancelled.
func (s *Scrubber) Stop() {
	s.cancel()
	<-s.done
}

// Passes returns the number of completed full passes.
func (s *Scrubber) Passes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.passes
}

// LastReport returns the report of the most recently completed pass,
// and ok=false if no pass has completed yet.
func (s *Scrubber) LastReport() (ScrubReport, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.passes == 0 {
		return ScrubReport{}, false
	}
	return s.last, true
}

func (s *Scrubber) run(ctx context.Context) {
	defer close(s.done)
	// Deregister before done closes (deferred funcs run LIFO), so once
	// Stop returns the array no longer counts this scrubber as live and
	// a Restore may proceed.
	defer s.a.scrubbers.Add(-1)
	// First pass immediately: a freshly started server must not sit
	// with zero patrol coverage for a full interval before the ticker
	// first fires.
	s.pass(ctx)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.pass(ctx)
		}
	}
}

// pass resumes (or starts) a scrub pass: every rank is scanned from
// its cursor. Ranks run sequentially — patrol scrubbing is a
// background chore and should not saturate all cores the way the
// foreground Array.Scrub may.
//
// Pass completion is decided by finishIfDone on every exit path, not
// only by the fall-through after a clean sweep: an interruption that
// lands exactly when the final rank's cursor reached the end must
// still publish the pass, or Passes()/LastReport() lag a full tick
// behind reality until the next all-continue sweep.
func (s *Scrubber) pass(ctx context.Context) {
	defer s.finishIfDone()
	for r, m := range s.a.ranks {
		s.mu.Lock()
		start := s.cursors[r]
		s.mu.Unlock()
		if start >= m.layout.DataLines {
			continue // already finished this rank in an earlier tick
		}
		rep, next, err := m.scrubFrom(ctx, start)
		for k, inner := range rep.Poisoned {
			rep.Poisoned[k] = s.a.globalLine(r, inner)
		}
		s.mu.Lock()
		s.cursors[r] = next
		s.running.merge(rep)
		s.mu.Unlock()
		if err != nil {
			return // interrupted; cursors keep the progress
		}
	}
}

// finishIfDone completes the pass when every rank's cursor has reached
// the end of its data region: the accumulated report becomes the last
// completed pass, cursors rewind, and the pass counter advances.
// Called on every exit from pass, so an interrupted-but-actually-done
// pass is published eagerly instead of waiting for the next tick.
func (s *Scrubber) finishIfDone() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for r, m := range s.a.ranks {
		if s.cursors[r] < m.layout.DataLines {
			return
		}
	}
	s.last = s.running
	s.running = ScrubReport{}
	for r := range s.cursors {
		s.cursors[r] = 0
	}
	s.passes++
}
