package core

import (
	"time"

	"synergy/internal/telemetry"
)

// This file is the engine's telemetry shim. The engine keeps the only
// copy of every per-rank count — Stats, the shared-path atomics, the
// error log and tally — and the registry reads them at scrape time
// through fillRank. What the registry owns is pushed from here: error
// counts per op, latency and stage histograms, and sink events.
//
// Sampling: a single-line read or write runs in a few hundred
// nanoseconds, so per-stage clock reads on every call would dominate
// it. readTraced and writeTraced time one in Registry.SampleEvery of
// their exclusive-lock operations (stage marks in readLocked and
// writeLocked fire only while m.st is active), and fastRead samples its
// own; the sampled timer's Finish is the op's latency observation.
// Scrub segments, flushes and repairs cost microseconds to seconds and
// are timed unconditionally. A batch is its lines' single-line ops, so
// each of its lines counts under read or write.

// tally holds the per-rank counts that have no Stats field: they exist
// only for telemetry. Guarded by mu.
type tally struct {
	reconstructions        uint64 // reconstruction-loop runs
	reconstructionFailures uint64 // runs where no candidate verified
	failClosed             uint64 // exclusive-path reads that returned ErrAttack or ErrPoisoned
	scrubSegments          uint64 // scrubFrom calls, completing or not
	scrubPasses            uint64 // segments that reached the end of the data region
	scrubScanned           uint64 // data lines scanned by those segments
	scrubCorrected         uint64 // scanned lines that needed correction
}

// startStages arms m.st for an exclusive-lock operation that is traced,
// or whose tick falls on the sampling period. Callers hold m.mu
// exclusively.
func (m *Memory) startStages(tick uint64, sp *telemetry.Span) {
	if sp != nil {
		m.st = m.tel.StartStagesSpan(m.telRank, sp)
	} else if tick&m.telMask == 0 {
		m.st = m.tel.StartStages(m.telRank)
	}
}

// finishStages records an armed timer's span as op's latency, disarms
// it, and counts a failed op. Callers hold m.mu exclusively.
func (m *Memory) finishStages(op telemetry.Op, err error) {
	if m.st.Active() {
		m.st.Finish(op)
		m.st = telemetry.StageTimer{}
	}
	if err != nil {
		m.tel.CountOpError(op, m.telRank)
	}
}

// fillRank adds this rank's counts to rs and its served read and write
// totals to ops: the registry's scrape-time view of the engine
// (telemetry.RankFill), registered once by newRank. One read-lock hold
// copies the lock-guarded counts.
func (m *Memory) fillRank(rs *telemetry.RankSnapshot, ops *[telemetry.NumOps]uint64) {
	m.mu.RLock()
	s, t, dirty := m.stats, m.tally, m.ncache.dirty
	reads, writes := m.telTick, m.telWTick
	m.mu.RUnlock()
	m.addShared(&s)
	poisonFails := m.fastPoisonFails.Load()

	for c, n := range m.log.ByChip() {
		rs.Corrections[c] += n
	}
	rs.Preemptive += s.PreemptiveFixes
	rs.Reconstructions += t.reconstructions
	rs.ReconstructionAttempts += s.ReconstructionAttempts
	rs.ReconstructionFailures += t.reconstructionFailures
	rs.Poisoned += s.LinesPoisoned
	rs.Healed += s.LinesHealed
	rs.FailClosed += t.failClosed + poisonFails
	rs.Repairs += s.ChipRepairs
	rs.ScrubSegments += t.scrubSegments
	rs.ScrubPasses += t.scrubPasses
	rs.ScrubScanned += t.scrubScanned
	rs.ScrubCorrected += t.scrubCorrected
	rs.MetaCacheHits += s.MetaCacheHits
	rs.MetaCacheMisses += s.MetaCacheMisses
	rs.MetaWritebacks += s.MetaWritebacks
	rs.MetaDirty += uint64(dirty)
	rs.FastReads += s.FastReads
	rs.GenRetries += s.GenRetries
	for k := range rs.Escalations {
		rs.Escalations[k] += m.escalations[k].Load()
	}
	// A read is served under the exclusive lock (telTick) or, clean,
	// pre-emptive or poison fast-fail, under the shared one.
	ops[telemetry.OpRead] += reads + s.FastReads + m.preemptReads.Load() + poisonFails
	ops[telemetry.OpWrite] += writes
}

// flush seals every dirty metadata cache entry back to the module (in
// deterministic address order) without evicting anything. After a nil
// return, stored device state is externally consistent — bit-identical
// to a default-config instance (every write flushes its own path) that
// served the same operations — which is the contract snapshot/restore
// and raw Module consumers rely on.
func (m *Memory) flush() error {
	m.tel.CountOp(telemetry.OpFlush, m.telRank)
	start := time.Now()
	m.mu.Lock()
	err := m.flushMetadata()
	m.mu.Unlock()
	m.tel.ObserveOp(telemetry.OpFlush, m.telRank, time.Since(start))
	if err != nil {
		m.tel.CountOpError(telemetry.OpFlush, m.telRank)
	}
	return err
}
