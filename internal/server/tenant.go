package server

import (
	"sync"
	"sync/atomic"
	"time"

	"synergy/internal/core"
	"synergy/internal/persist"
	"synergy/internal/telemetry"
)

// tenant is one keyspace: its own Array (own encryption/MAC keys and
// per-rank integrity tree roots — cryptographic isolation, not just
// address partitioning), its own admission queues, and its own
// shedding state.
type tenant struct {
	name  string
	token string
	index int // telemetry shard
	arr   *core.Array
	owned bool // the server built the array and owns its lifecycle

	// slots[r] is rank r's bounded admission queue: a counting
	// semaphore holding one token per in-flight request admitted to
	// the rank. A full channel is the backpressure signal.
	slots []chan struct{}

	// shedding is flipped by the analysis watcher; data-plane handlers
	// read it on every request.
	shedding atomic.Bool

	// slo tracks this tenant's availability/latency objectives (nil
	// when the server runs without telemetry).
	slo *telemetry.SLOTracker
	// restoring is set for the duration of a restore install; /readyz
	// reports the tenant not-ready while it holds.
	restoring atomic.Bool

	// Watcher-private state: the previous window's per-rank corrected
	// -error totals (only the watcher goroutine touches these).
	lastCorrections []uint64

	// snaps is where this tenant's sealed checkpoints live (nil:
	// durability endpoints disabled for the tenant).
	snaps persist.Store
	// ctl serializes the durability control plane (snapshot/restore and
	// the scrubber stop/restart dance around restore) against itself
	// and against Close.
	ctl sync.Mutex

	// scrubber is guarded by ctl once Start has run: the restore
	// handler stops and restarts it around the install.
	scrubber *core.Scrubber
}

// admitOne admits a single-line operation to rank r, waiting at most
// wait for a slot. The returned release must be called exactly once.
func (t *tenant) admitOne(r int, wait time.Duration) (func(), error) {
	sem := t.slots[r]
	select {
	case sem <- struct{}{}:
	default:
		if wait <= 0 {
			return nil, ErrBackpressure
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case sem <- struct{}{}:
		case <-timer.C:
			return nil, ErrBackpressure
		}
	}
	return func() { <-sem }, nil
}

// admitRanks admits a batch touching the given rank set (a boolean
// mask indexed by rank). Ranks are acquired in ascending order — a
// total order, so concurrent batches cannot deadlock — and on any
// failure every slot already held is released before returning.
func (t *tenant) admitRanks(mask []bool, wait time.Duration) (func(), error) {
	var held []func()
	release := func() {
		for _, f := range held {
			f()
		}
	}
	for r, want := range mask {
		if !want {
			continue
		}
		f, err := t.admitOne(r, wait)
		if err != nil {
			release()
			return nil, err
		}
		held = append(held, f)
	}
	return release, nil
}

// rankOf maps a global line to its rank the same way the Array routes.
func (t *tenant) rankOf(line uint64) int {
	return int(line % uint64(t.arr.Ranks()))
}

// analyze runs one watcher window over the tenant: it reads each
// rank's §IV-B assessment and the corrected-error delta since the last
// window, and engages (or releases) shedding.
//
// Engagement needs both signals at once: ErrorLog.Analyze flagging the
// lifetime pattern as a suspected DoS (corrections spread over ≥3
// chips — no natural single-chip failure mode does that) AND an
// active storm, i.e. at least minCorrections corrected errors landed
// within this window. The delta term is what lets the tenant recover:
// assessments are lifetime-cumulative and stay "suspected-dos" after
// any storm, but once injection stops the per-window delta falls to
// zero and shedding disengages on the next tick.
func (t *tenant) analyze(minCorrections uint64) {
	var delta uint64
	suspected := false
	for r := 0; r < t.arr.Ranks(); r++ {
		m := t.arr.Rank(r)
		lg := m.ErrorLog()
		total := lg.Total()
		delta += total - t.lastCorrections[r]
		t.lastCorrections[r] = total
		st := m.Stats()
		if lg.Analyze(st.Reads+st.Writes).Assessment == core.AssessmentSuspectedDoS {
			suspected = true
		}
	}
	shed := suspected && delta >= minCorrections
	t.shedding.Store(shed)
}
