package telemetry

import "time"

// Snapshot is a point-in-time JSON-able copy of a Registry: the
// /metrics.json wire format and the input to client-side deltas
// (synergy-top polls two snapshots and renders Sub of the pair).
type Snapshot struct {
	// TakenUnixNanos is the wall-clock capture time, for rate
	// computation across snapshots.
	TakenUnixNanos int64 `json:"taken_unix_nanos"`
	// Ops maps Op labels ("read", "write", ...) to their totals.
	Ops map[string]OpSnapshot `json:"ops"`
	// Stages maps Stage labels ("counter_fetch", "otp", ...) to the
	// sampled secure-read stage latency histograms.
	Stages map[string]HistogramSnapshot `json:"stages"`
	// Ranks holds per-rank event counters, indexed by rank: every rank
	// up to the highest registered one.
	Ranks []RankSnapshot `json:"ranks"`
	// SLOs holds one evaluation per registered SLO tracker.
	SLOs []SLOSnapshot `json:"slos,omitempty"`
	// Flight summarizes the attached flight recorder, when present.
	Flight *FlightStats `json:"flight,omitempty"`
}

// OpSnapshot is one operation's totals.
type OpSnapshot struct {
	Count   uint64            `json:"count"`
	Errors  uint64            `json:"errors"`
	Latency HistogramSnapshot `json:"latency"`
}

// RankSnapshot is one rank's event counters, as the engine keeps them
// (see RegisterRank); ranks that share an index are summed.
type RankSnapshot struct {
	Rank                   int              `json:"rank"`
	Corrections            [NumChips]uint64 `json:"corrections_by_chip"`
	Preemptive             uint64           `json:"preemptive"`
	Reconstructions        uint64           `json:"reconstructions"`
	ReconstructionAttempts uint64           `json:"reconstruction_attempts"`
	ReconstructionFailures uint64           `json:"reconstruction_failures"`
	Poisoned               uint64           `json:"poisoned"`
	Healed                 uint64           `json:"healed"`
	FailClosed             uint64           `json:"fail_closed"`
	Repairs                uint64           `json:"repairs"`
	ScrubSegments          uint64           `json:"scrub_segments"`
	ScrubPasses            uint64           `json:"scrub_passes"`
	ScrubScanned           uint64           `json:"scrub_scanned"`
	ScrubCorrected         uint64           `json:"scrub_corrected"`
	MetaCacheHits          uint64           `json:"metacache_hits"`
	MetaCacheMisses        uint64           `json:"metacache_misses"`
	MetaWritebacks         uint64           `json:"metacache_writebacks"`
	MetaDirty              uint64           `json:"metacache_dirty"`

	// Optimistic read-path counters: reads served under the shared
	// lock, generation-conflict retries, and escalations to the
	// exclusive path indexed by EscReason.
	FastReads   uint64                `json:"fast_reads"`
	GenRetries  uint64                `json:"gen_retries"`
	Escalations [NumEscReasons]uint64 `json:"read_escalations_by_reason"`
}

// Snapshot captures the registry's current totals. Per-rank counts and
// the engine's read and write totals come from the registered rank
// sources, each of which takes its rank's read lock for one copy, so
// Snapshot must never run under a rank lock (from a Sink hook, say). On
// a disabled registry it returns an empty (but well-formed) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		TakenUnixNanos: time.Now().UnixNano(),
		Ops:            make(map[string]OpSnapshot, NumOps),
		Stages:         make(map[string]HistogramSnapshot, NumStages),
	}
	if r == nil {
		return s
	}
	var engine [NumOps]uint64
	r.mu.Lock()
	sources := r.sources
	r.mu.Unlock()
	for _, src := range sources {
		for len(s.Ranks) <= src.rank {
			s.Ranks = append(s.Ranks, RankSnapshot{Rank: len(s.Ranks)})
		}
		src.fill(&s.Ranks[src.rank], &engine)
	}
	for op := Op(0); op < NumOps; op++ {
		s.Ops[op.String()] = OpSnapshot{
			Count:   r.ops[op].count.Load() + engine[op],
			Errors:  r.ops[op].errors.Load(),
			Latency: r.ops[op].latency.Snapshot(),
		}
	}
	for st := Stage(0); st < NumStages; st++ {
		s.Stages[st.String()] = r.stages[st].Snapshot()
	}
	for _, t := range r.sloList() {
		s.SLOs = append(s.SLOs, t.Snapshot())
	}
	if f := r.Flight(); f != nil {
		fs := f.Stats()
		s.Flight = &fs
	}
	return s
}

// Sub returns the delta s - prev: counter-wise subtraction with clamp
// at zero (a restarted process makes counters regress; the delta view
// should show zeros, not wrap). Ranks and ops present only in s carry
// their full value.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		TakenUnixNanos: s.TakenUnixNanos,
		Ops:            make(map[string]OpSnapshot, len(s.Ops)),
		Stages:         make(map[string]HistogramSnapshot, len(s.Stages)),
	}
	for name, cur := range s.Ops {
		p := prev.Ops[name]
		d.Ops[name] = OpSnapshot{
			Count:   subClamp(cur.Count, p.Count),
			Errors:  subClamp(cur.Errors, p.Errors),
			Latency: cur.Latency.Sub(p.Latency),
		}
	}
	for name, cur := range s.Stages {
		d.Stages[name] = cur.Sub(prev.Stages[name])
	}
	prevRanks := make(map[int]RankSnapshot, len(prev.Ranks))
	for _, r := range prev.Ranks {
		prevRanks[r.Rank] = r
	}
	for _, cur := range s.Ranks {
		p := prevRanks[cur.Rank]
		rd := RankSnapshot{
			Rank:                   cur.Rank,
			Preemptive:             subClamp(cur.Preemptive, p.Preemptive),
			Reconstructions:        subClamp(cur.Reconstructions, p.Reconstructions),
			ReconstructionAttempts: subClamp(cur.ReconstructionAttempts, p.ReconstructionAttempts),
			ReconstructionFailures: subClamp(cur.ReconstructionFailures, p.ReconstructionFailures),
			Poisoned:               subClamp(cur.Poisoned, p.Poisoned),
			Healed:                 subClamp(cur.Healed, p.Healed),
			FailClosed:             subClamp(cur.FailClosed, p.FailClosed),
			Repairs:                subClamp(cur.Repairs, p.Repairs),
			ScrubSegments:          subClamp(cur.ScrubSegments, p.ScrubSegments),
			ScrubPasses:            subClamp(cur.ScrubPasses, p.ScrubPasses),
			ScrubScanned:           subClamp(cur.ScrubScanned, p.ScrubScanned),
			ScrubCorrected:         subClamp(cur.ScrubCorrected, p.ScrubCorrected),
			MetaCacheHits:          subClamp(cur.MetaCacheHits, p.MetaCacheHits),
			MetaCacheMisses:        subClamp(cur.MetaCacheMisses, p.MetaCacheMisses),
			MetaWritebacks:         subClamp(cur.MetaWritebacks, p.MetaWritebacks),
			// MetaDirty is a gauge: the delta view shows the current
			// dirty count, not a difference.
			MetaDirty:  cur.MetaDirty,
			FastReads:  subClamp(cur.FastReads, p.FastReads),
			GenRetries: subClamp(cur.GenRetries, p.GenRetries),
		}
		for c := range cur.Corrections {
			rd.Corrections[c] = subClamp(cur.Corrections[c], p.Corrections[c])
		}
		for e := range cur.Escalations {
			rd.Escalations[e] = subClamp(cur.Escalations[e], p.Escalations[e])
		}
		d.Ranks = append(d.Ranks, rd)
	}
	// SLO evaluations and flight-recorder stats are point-in-time
	// views (windows and gauges), not counters: the delta carries the
	// current values unchanged.
	d.SLOs = s.SLOs
	d.Flight = s.Flight
	return d
}

// Elapsed returns the wall time between two snapshots.
func (s Snapshot) Elapsed(prev Snapshot) time.Duration {
	return time.Duration(s.TakenUnixNanos - prev.TakenUnixNanos)
}
