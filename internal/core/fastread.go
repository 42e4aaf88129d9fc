package core

import (
	"fmt"
	"sync/atomic"

	"synergy/internal/telemetry"
)

// This file is the shared-lock optimistic read path: the steady-state
// read served entirely under m.mu.RLock, so concurrent readers on one
// rank scale with cores instead of serializing behind the rank's
// exclusive lock. The steady state is the clean read on a healthy
// rank, and the §IV-A pre-emptive read once the scoreboard has
// condemned a chip — one MAC computation, as the paper promises, and
// no store.
//
// # Why the fast path is safe
//
// The snapshot — the cached counter leaf and the data-line copy, plus,
// under a condemned chip, the line's parity and its stored cells — is
// taken inside one RLock critical section. RWMutex readers exclude
// writers, so the snapshot is internally consistent: the counter, the
// ciphertext and the parity belong to the same committed state. The MAC
// check binds (address, counter, ciphertext) together, and the counter
// comes from the on-chip metadata cache — inside the trust boundary,
// current by construction (every mutator updates the cached copy under
// the exclusive lock) — so a passing verify gives exactly the freshness
// and integrity guarantee of the exclusive walk that stops at the same
// cached node (Fig. 7b). A raw, uncached counter is never trusted
// here: without the cached (verified) leaf there is no replay
// protection, so a cache miss escalates.
//
// Under a condemned chip the verified line is the candidate with that
// chip's slice rebuilt from parity (preemptData). The exclusive path
// would write it back only where it differs from the stored cells; a
// permanent fault corrupts reads, not cells, so in the steady state it
// does not, and serving it here leaves the device exactly as the
// exclusive path would.
//
// # The escalation ladder
//
// Everything that mutates engine state stays on the exclusive path.
// The fast path handles one case — cache-hit, verified candidate that
// needs no store-back — and gives up otherwise:
//
//	RLock fast path
//	  └─ generation retry (bounded)   — a concurrent mutator advanced
//	     the line between attempts; re-snapshot and try again
//	     └─ exclusive slow path       — cache miss/fill, MAC mismatch
//	        (ECC correction, scoreboard), a pre-emptive fix whose
//	        stored cells differ (a transient on the condemned chip),
//	        poison bookkeeping, retries exhausted
//
// # Generations
//
// gens is a striped array of seqlock-style version slots, one per
// line-index stripe. Every mutator that changes a line's
// decrypt-relevant state (write commit, correction, poison/heal,
// group re-encryption) bumps the line's slot under the exclusive
// lock; an optimistic reader loads the slot before its snapshot and
// re-checks it when the MAC verify fails. A changed generation means
// a mutator landed since the attempt began — e.g. a patrol scrubber
// corrected the very corruption the verify tripped on — so the reader
// retries and usually succeeds without ever taking the exclusive
// lock. An unchanged generation means the mismatch is genuine
// on-device corruption and the read escalates to the correction
// machinery. Striping makes conflicts conservative: a neighbor's
// write can force a spurious retry, never a missed one. Readers never
// return data whose MAC did not verify against a trusted counter, so
// a generation conflict can cost a retry but can never leak a stale
// or mismatched pad/ciphertext pairing.

// genStripes is the number of per-line generation slots (power of
// two). 1024 slots × 8 B keeps the table in a few cachelines' worth
// of L1 while making cross-line conflicts rare.
const genStripes = 1024

// fastReadRetries bounds generation-conflict retries before the read
// escalates: one re-snapshot catches the scrubber-just-fixed-it case;
// more would just spin under a write-heavy neighbor.
const fastReadRetries = 2

// genSlot returns line i's generation slot.
func (m *Memory) genSlot(i uint64) *atomic.Uint64 {
	return &m.gens[i&(genStripes-1)]
}

// bumpGen advances line i's generation. Callers hold m.mu exclusively.
func (m *Memory) bumpGen(i uint64) {
	m.gens[i&(genStripes-1)].Add(1)
}

// bumpAllGens advances every generation slot — the conservative bump
// for mutations whose blast radius spans many lines (a path
// correction is shared by up to 48+ data lines). Rare-path only.
// Callers hold m.mu exclusively.
func (m *Memory) bumpAllGens() {
	for k := range m.gens {
		m.gens[k].Add(1)
	}
}

// escalate counts one fast-path attempt giving up, by reason, and
// marks it on the request's span, before the caller falls through to
// the exclusive path.
func (m *Memory) escalate(reason telemetry.EscReason, sp *telemetry.Span) {
	m.escalations[reason].Add(1)
	sp.Escalation(reason)
}

// fastRead attempts to serve data line i under the shared lock alone.
// ok=false means the caller must run the exclusive path (the attempt
// has already been counted as an escalation); ok=true means the read
// completed — dst filled (info.Preemptive set under a condemned chip),
// or a definitive error (poison fast-fail, device error) that needs no
// exclusive work.
//
// sp is the request's trace span (nil on the untraced path — every use
// below is nil-receiver safe, so the hot path pays one pointer
// compare). A traced read always times its stages; escalation rungs
// and the poison fast-fail become span events the flight recorder can
// retain.
func (m *Memory) fastRead(i uint64, dst []byte, sp *telemetry.Span) (info ReadInfo, err error, ok bool) {
	if len(dst) != LineSize || i >= m.layout.DataLines {
		return ReadInfo{}, nil, false // exclusive path formats the error
	}
	// Sampled stage timing, mirroring ReadTraced: the load-then-add
	// pair races between readers, which only jitters the sample phase.
	var st telemetry.StageTimer
	if m.tel != nil {
		if sp != nil {
			st = m.tel.StartStagesSpan(m.telRank, sp)
		} else if (m.fastReads.Load()+m.preemptReads.Load()+1)&m.telMask == 0 {
			st = m.tel.StartStages(m.telRank)
		}
	}
	g := m.genSlot(i)
	for attempt := 0; attempt <= fastReadRetries; attempt++ {
		gen := g.Load()

		m.mu.RLock()
		if _, bad := m.poisoned[i]; bad {
			m.mu.RUnlock()
			m.fastPoisonFails.Add(1)
			m.tel.CountOpError(telemetry.OpRead, m.telRank)
			sp.Flag(telemetry.AnomalyFailClosed)
			return ReadInfo{}, fmt.Errorf("core: data line %d: %w", i, ErrPoisoned), true
		}
		ca, slot := m.layout.CounterAddr(i)
		cn, hit := m.ncache.get(ca)
		if !hit {
			m.mu.RUnlock()
			m.escalate(telemetry.EscCacheMiss, sp)
			return ReadInfo{}, nil, false
		}
		var ctr uint64
		if m.split {
			ctr = cn.split.Counter(slot)
		} else {
			ctr = cn.node.Counters[slot]
		}
		dataAddr := m.layout.DataAddr(i)
		dl, rerr := m.mod.ReadLine(dataAddr)
		preempt, stale := m.knownBad >= 0, false
		if rerr == nil && preempt {
			stale, rerr = m.preemptData(i, &dl)
		}
		m.mu.RUnlock()
		if rerr != nil {
			return ReadInfo{}, rerr, true
		}
		st.Mark(telemetry.StageCounterFetch)

		// Verify and decrypt outside the lock: both touch only the
		// snapshot and the immutable crypto engines. The verify's MAC is
		// not counted here: Stats derives it from the attempt's outcome.
		if !m.verifyData(dataAddr, ctr, &dl) {
			if g.Load() != gen {
				// A mutator landed mid-attempt (scrub correction, racing
				// write): the snapshot straddled it. Re-snapshot.
				m.genRetries.Add(1)
				continue
			}
			m.escalate(telemetry.EscMismatch, sp)
			return ReadInfo{}, nil, false
		}
		if stale {
			// Verified, but the cells still hold the damage the candidate
			// repairs: the exclusive path writes the fix back.
			m.escalate(telemetry.EscDegraded, sp)
			return ReadInfo{}, nil, false
		}
		if preempt {
			st.Mark(telemetry.StageReconstruct)
		} else {
			st.Mark(telemetry.StageMACVerify)
		}
		// Decrypt cannot fail here, so addShared counts no outcome for
		// it: dst's length was checked on entry, dl is this call's own
		// line, and ctr comes from a verified cached leaf, whose
		// counters never exceed CounterMax (56-bit monolithic counters;
		// split counters are Major<<8|minor, and Bump caps Major at 48
		// bits).
		if derr := m.enc.Decrypt(dst, dl.Data[:], dataAddr, ctr); derr != nil {
			return ReadInfo{}, derr, true
		}
		st.Mark(telemetry.StageOTP)

		// Only a clean read is a FastRead; a pre-emptive one is a
		// PreemptiveFix, as it is on the exclusive path.
		if preempt {
			m.preemptReads.Add(1)
		} else {
			m.fastReads.Add(1)
		}
		if st.Active() {
			st.Finish(telemetry.OpRead)
		}
		return ReadInfo{Preemptive: preempt}, nil, true
	}
	m.escalate(telemetry.EscGenConflict, sp)
	return ReadInfo{}, nil, false
}
