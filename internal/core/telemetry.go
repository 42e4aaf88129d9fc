package core

import (
	"context"
	"errors"
	"time"

	"synergy/internal/telemetry"
)

// This file is the engine's telemetry shim: thin counted wrappers
// around the locked operation bodies in memory.go. Keeping the
// instrumentation at the operation boundary — one counter update, and
// two clock reads for the coarse ops — leaves the hot paths readable
// and makes the disabled case (nil registry) a single pointer compare
// per operation.
//
// Sampling: the single-line read runs in ~300ns, so per-stage clock
// reads on every call would dominate it. readCounted times one in
// Registry.SampleEvery reads (stage marks in readLocked fire only
// while m.st is active); counters stay exact on every call. Writes,
// scrub segments and repairs cost microseconds to seconds and are
// timed unconditionally. A batch is its lines' single-line ops, so
// each of its lines counts under read or write.

// readCounted wraps readLocked with the read op counter, the
// fail-closed outcome counter, and — on sampled reads — the per-stage
// pipeline timer behind the live Fig. 5 breakdown. Callers hold m.mu
// exclusively (telTick and st are plain fields under the lock).
//
// sp is the request's trace span: nil on the untraced path; non-nil
// forces stage timing (an explicitly traced request always gets its
// breakdown) and mirrors every mark into the span as events.
func (m *Memory) readCounted(i uint64, dst []byte, sp *telemetry.Span) (ReadInfo, error) {
	if m.tel == nil {
		return m.readLocked(i, dst)
	}
	// telTick doubles as the served-read total; publishing it through
	// the single-writer slot costs a plain store instead of CountOp's
	// locked add — the difference between fitting the ≤5% hot-path
	// budget and not.
	m.telTick++
	m.telReads.Set(m.telTick)
	if sp != nil {
		m.st = m.tel.StartStagesSpan(m.telRank, sp)
	} else if m.telTick&m.telMask == 0 {
		m.st = m.tel.StartStages(m.telRank)
	}
	info, err := m.readLocked(i, dst)
	if m.st.Active() {
		m.st.Finish(telemetry.OpRead)
		m.st = telemetry.StageTimer{}
		m.publishMetaStats()
	}
	if err != nil {
		m.tel.CountOpError(telemetry.OpRead, m.telRank)
		if IsFailClosed(err) {
			m.tel.CountFailClosed(m.telRank, m.telRank)
		}
	}
	return info, err
}

// writeCounted wraps writeLocked with the write op counter and
// latency; one in SampleEvery writes additionally gets the per-stage
// pipeline timer (counter fetch / meta update / OTP), mirroring the
// read-side sampling. Callers hold m.mu exclusively.
func (m *Memory) writeCounted(i uint64, plain []byte, sp *telemetry.Span) error {
	if m.tel == nil {
		return m.writeLocked(i, plain)
	}
	m.tel.CountOp(telemetry.OpWrite, m.telRank)
	m.telWTick++
	start := time.Now()
	if sp != nil {
		m.st = m.tel.StartStagesSpan(m.telRank, sp)
	} else if m.telWTick&m.telMask == 0 {
		m.st = m.tel.StartStages(m.telRank)
	}
	err := m.writeLocked(i, plain)
	if m.st.Active() {
		m.st = telemetry.StageTimer{}
		m.publishMetaStats()
	}
	m.tel.ObserveOp(telemetry.OpWrite, m.telRank, time.Since(start))
	if err != nil {
		m.tel.CountOpError(telemetry.OpWrite, m.telRank)
	}
	return err
}

// publishMetaStats publishes the metadata-cache counters to the
// per-rank telemetry block with plain atomic stores. Called at sampled
// operation boundaries (never per cache probe) so the hot paths pay
// map probes, not atomics. Callers hold m.mu exclusively.
func (m *Memory) publishMetaStats() {
	m.telMeta.SetMetaCache(
		m.stats.MetaCacheHits, m.stats.MetaCacheMisses,
		m.stats.MetaWritebacks, uint64(m.ncache.dirty))
}

// Flush seals every dirty metadata cache entry back to the module (in
// deterministic address order) without evicting anything. After a nil
// return, stored device state is externally consistent — bit-identical
// to a default-config instance (every write flushes its own path) that
// served the same operations — which is the contract snapshot/restore
// and raw Module consumers rely on.
func (m *Memory) Flush() error {
	if m.tel == nil {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.flushMetadata()
	}
	m.tel.CountOp(telemetry.OpFlush, m.telRank)
	start := time.Now()
	m.mu.Lock()
	err := m.flushMetadata()
	m.publishMetaStats()
	m.mu.Unlock()
	m.tel.ObserveOp(telemetry.OpFlush, m.telRank, time.Since(start))
	if err != nil {
		m.tel.CountOpError(telemetry.OpFlush, m.telRank)
	}
	return err
}

// ScrubFrom scans data lines [start, DataLines) with Scrub semantics
// and additionally returns the next line to scan — DataLines when the
// pass completed, or the resume point when ctx was cancelled. It is
// the primitive background scrubbers use to resume an interrupted
// pass instead of restarting it.
func (m *Memory) ScrubFrom(ctx context.Context, start uint64) (ScrubReport, uint64, error) {
	if m.tel == nil {
		return m.scrubFrom(ctx, start)
	}
	m.tel.CountOp(telemetry.OpScrub, m.telRank)
	t0 := time.Now()
	rep, next, err := m.scrubFrom(ctx, start)
	m.tel.ObserveOp(telemetry.OpScrub, m.telRank, time.Since(t0))
	// A cancelled context is the caller pausing the patrol, not the
	// engine failing; only I/O-level failures count as errors.
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		m.tel.CountOpError(telemetry.OpScrub, m.telRank)
	}
	m.tel.CountScrubSegment(m.telRank, rep.Scanned, rep.Corrected)
	if next == m.layout.DataLines {
		m.tel.EmitScrubPass(telemetry.ScrubEvent{
			Rank:      m.telRank,
			Scanned:   rep.Scanned,
			Corrected: rep.Corrected,
			Poisoned:  len(rep.Poisoned),
		})
	}
	return rep, next, err
}

// RepairChip models replacing chip (or re-mapping around it). Every
// active permanent fault on the chip is cleared; then a verification
// sweep reads every data line with the chip condemned, so the §IV-A
// preemptive path rebuilds the chip's slice of every touched line —
// data, counter and tree — from parity, MAC-verifies the result, and
// commits it. Rebuilding under MAC verification (instead of blindly
// XORing parity into the stored slice) matters when a second fault is
// present: a blind rebuild would spread the other chip's error onto
// the repaired chip and destroy an otherwise-correctable line.
// Finally the parity region is recomputed from the verified data, the
// scoreboard and condemned-chip state are reset so subsequent reads
// run at full speed, and poisoned lines the repair fixed are healed —
// any line that is still uncorrectable (a second fault elsewhere)
// stays poisoned.
func (m *Memory) RepairChip(chip int) error {
	if m.tel == nil {
		return m.repairChip(chip)
	}
	m.tel.CountOp(telemetry.OpRepairChip, m.telRank)
	start := time.Now()
	err := m.repairChip(chip)
	m.tel.ObserveOp(telemetry.OpRepairChip, m.telRank, time.Since(start))
	if err != nil {
		m.tel.CountOpError(telemetry.OpRepairChip, m.telRank)
	} else {
		m.tel.EmitRepair(telemetry.RepairEvent{Rank: m.telRank, Chip: chip})
	}
	return err
}

// emitReconstruction publishes one reconstruction-loop run (the
// registry fans it to sinks and the per-rank counters).
func (m *Memory) emitReconstruction(addr uint64, r Region, attempts int, success bool) {
	m.tel.EmitReconstruction(telemetry.ReconstructionEvent{
		Rank:     m.telRank,
		Line:     addr,
		Region:   r.String(),
		Attempts: attempts,
		Success:  success,
	})
}

// Telemetry returns the registry this memory records into (Disabled
// when none was configured).
func (m *Memory) Telemetry() *telemetry.Registry { return m.tel }

// Telemetry returns the registry the array's ranks record into
// (Disabled when none was configured).
func (a *Array) Telemetry() *telemetry.Registry {
	if len(a.ranks) == 0 {
		return telemetry.Disabled
	}
	return a.ranks[0].tel
}
