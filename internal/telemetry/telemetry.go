// Package telemetry is the engine's low-overhead instrumentation
// layer: sharded atomic counters, fixed-bucket log2 latency histograms,
// per-stage timing of the secure-read pipeline (the paper's Fig. 5
// cost breakdown, produced from a live run instead of a benchmark),
// scrape-time views of the per-rank counts each engine keeps
// (RegisterRank), and an event-hook Sink API the engine fans its
// correction, poison, scrub and repair events out through.
//
// # Overhead contract
//
// The record path never allocates, and a disabled registry (the nil
// *Registry, exported as Disabled) costs one pointer comparison per
// call — every method is nil-receiver safe, so instrumented code holds
// a *Registry unconditionally and never branches on configuration.
//
// Counters are exact. Per-rank event counts are not recorded here at
// all: the engine keeps the only copy, and Snapshot reads it. Latency
// histograms for the single-line read and write — the ~150-350ns hot
// paths — are *sampled* (default 1 in 64 of each): a single clock read
// costs ~25ns, so timing the pipeline stages of every op would eat the
// ≤5% budget several times over, while sampling still converges on
// the true distribution within a second of traffic. Coarse operations
// (scrub segments, repairs, flushes) are timed on every call; their
// cost dwarfs the clock's.
//
// # Concurrency
//
// Everything is safe for concurrent use. Counters and histograms
// stripe their hot words across shards to keep cross-rank traffic off
// shared cachelines; exact totals are summed at read time. A snapshot
// takes each registered rank's read lock for one copy of its counts.
// Sinks are invoked synchronously from inside the engine (often under
// a rank lock): implementations must return quickly and must never
// call back into the Array or rank that emitted the event, nor into
// Snapshot or WritePrometheus.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Op identifies an instrumented engine operation.
type Op uint8

const (
	// OpRead is one data-line read served (including each line of a
	// batch and the reads a scrub pass issues — "reads" in the sense of
	// core.Stats.Reads).
	OpRead Op = iota
	// OpWrite is one data-line write served (each line of a batch
	// included).
	OpWrite
	// OpScrub is one scrub segment: a rank scrubFrom call scanning from its
	// cursor to completion or cancellation.
	OpScrub
	// OpRepairChip is one RepairChip sweep.
	OpRepairChip
	// OpFlush is one metadata-cache flush: every dirty counter/tree
	// entry sealed and written back (the write-back cache's durability
	// point).
	OpFlush
	// OpTrial counts Monte Carlo reliability trials completed — the
	// reliability engine's throughput signal (no latency histogram).
	OpTrial

	// RPC-layer operations: requests served by internal/server, timed
	// end to end (auth + admission + engine + serialization), so the
	// /metrics endpoint carries true per-op service SLOs next to the
	// engine-side numbers. Errors include rejected requests.
	OpRPCRead
	OpRPCWrite
	OpRPCReadBatch
	OpRPCWriteBatch
	OpRPCScrub
	OpRPCRepair
	// OpRPCSnapshot and OpRPCRestore are the durability control plane:
	// sealed checkpoints written to and recovered from the tenant's
	// snapshot store.
	OpRPCSnapshot
	OpRPCRestore
	// OpRPCRejected counts requests refused before reaching the engine
	// — admission-queue backpressure and poison-storm load shedding
	// (no latency histogram: rejection is the fast path by design).
	OpRPCRejected

	// NumOps is the number of instrumented operations.
	NumOps
)

// String returns the op's snake-case label (used as the Prometheus
// "op" label and the JSON snapshot key).
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpScrub:
		return "scrub"
	case OpRepairChip:
		return "repair_chip"
	case OpFlush:
		return "flush"
	case OpTrial:
		return "trial"
	case OpRPCRead:
		return "rpc_read"
	case OpRPCWrite:
		return "rpc_write"
	case OpRPCReadBatch:
		return "rpc_read_batch"
	case OpRPCWriteBatch:
		return "rpc_write_batch"
	case OpRPCScrub:
		return "rpc_scrub"
	case OpRPCRepair:
		return "rpc_repair"
	case OpRPCSnapshot:
		return "rpc_snapshot"
	case OpRPCRestore:
		return "rpc_restore"
	case OpRPCRejected:
		return "rpc_rejected"
	default:
		return "unknown"
	}
}

// Stage identifies one stage of the secure-read pipeline (Fig. 5: the
// places a secure read spends its cycles).
type Stage uint8

const (
	// StageCounterFetch covers fetching the data line plus the counter
	// and tree lines of its integrity path from the module.
	StageCounterFetch Stage = iota
	// StageTreeWalk covers the leaf-to-root MAC verification walk over
	// the fetched path (Fig. 7b).
	StageTreeWalk
	// StageMACVerify covers the data-line MAC check against the
	// counter-derived tag.
	StageMACVerify
	// StageReconstruct covers the correction machinery when a mismatch
	// was seen: the downward re-verify and the candidate reconstruction
	// attempt loop (and the §IV-A pre-emptive rebuild, which replaces
	// it for a condemned chip). Absent from clean reads.
	StageReconstruct
	// StageOTP covers decryption: generating the counter-mode one-time
	// pad and XORing it in.
	StageOTP
	// StageMetaUpdate covers the write path's metadata advance: counter
	// bumps and dirty marking at every level in the metadata cache, plus,
	// in the default configuration, sealing and storing each level
	// before the write returns — the stage a write-back cache exists to
	// shrink.
	StageMetaUpdate

	// NumStages is the number of pipeline stages.
	NumStages
)

// String returns the stage's snake-case label.
func (s Stage) String() string {
	switch s {
	case StageCounterFetch:
		return "counter_fetch"
	case StageTreeWalk:
		return "tree_walk"
	case StageMACVerify:
		return "mac_verify"
	case StageReconstruct:
		return "reconstruct"
	case StageOTP:
		return "otp"
	case StageMetaUpdate:
		return "meta_update"
	default:
		return "unknown"
	}
}

// EscReason classifies why an optimistic (shared-lock) read gave up
// and escalated to the exclusive slow path — the rungs of the
// escalation ladder (DESIGN.md §12).
type EscReason uint8

const (
	// EscCacheMiss: the line's counter leaf was not in the on-chip
	// metadata cache, so there is no trusted counter to verify against
	// without a cache fill (a structural mutation).
	EscCacheMiss EscReason = iota
	// EscMismatch: the data-line MAC failed against the trusted cached
	// counter with no concurrent writer detected — genuine corruption
	// that needs the correction machinery.
	EscMismatch
	// EscDegraded: a condemned chip's §IV-A pre-emptive candidate
	// verified, but the stored cells need the fix written back (a
	// transient on the condemned chip), which only the exclusive path
	// may do. Steady-state degraded reads are served shared and never
	// count here.
	EscDegraded
	// EscGenConflict: generation-conflict retries were exhausted —
	// mutators kept landing on the line between optimistic attempts.
	EscGenConflict

	// NumEscReasons is the number of escalation reasons.
	NumEscReasons
)

// String returns the reason's snake-case label (the Prometheus
// "reason" label).
func (e EscReason) String() string {
	switch e {
	case EscCacheMiss:
		return "cache_miss"
	case EscMismatch:
		return "mismatch"
	case EscDegraded:
		return "degraded"
	case EscGenConflict:
		return "gen_conflict"
	default:
		return "unknown"
	}
}

// DefaultSampleEvery is the default sampling period for hot-path
// latency observations: one in every 64 reads, and one in every 64
// writes, gets stage-by-stage clock reads; the rest pay none.
const DefaultSampleEvery = 64

// Option configures a Registry.
type Option func(*Registry)

// SampleEvery sets the hot-path latency sampling period. n is rounded
// up to the next power of two; 1 samples every read (benchmark mode —
// expect the clock reads to dominate the hot path), 0 keeps the
// default.
func SampleEvery(n int) Option {
	return func(r *Registry) {
		if n <= 0 {
			return
		}
		p := 1
		for p < n {
			p <<= 1
		}
		r.sampleMask = uint64(p - 1)
	}
}

// opMetrics is one operation's counter pair and latency histogram.
type opMetrics struct {
	count   Counter
	errors  Counter
	latency Histogram
}

// Registry is one telemetry domain: a set of counters, histograms and
// sinks that instrumented components record into, and the rank sources
// it reads when a snapshot is taken. The zero *Registry
// (nil, exported as Disabled) is valid and records nothing.
type Registry struct {
	sampleMask uint64

	ops    [NumOps]opMetrics
	stages [NumStages]Histogram

	mu      sync.Mutex
	sources []rankSource // append-only under mu
	sinks   atomic.Pointer[[]Sink]
	slos    atomic.Pointer[[]*SLOTracker]
	flight  atomic.Pointer[FlightRecorder]
}

// RankFill adds one engine rank's current counts to rs, and its served
// operation totals to ops (indexed by Op). It adds rather than
// assigns, so engines that share a rank index sum.
type RankFill func(rs *RankSnapshot, ops *[NumOps]uint64)

// rankSource is one registered engine rank.
type rankSource struct {
	rank int
	fill RankFill
}

// RegisterRank makes fill the source of rank's per-rank counts: every
// Snapshot (and so every scrape) calls it. The engine keeps the only
// copy of each count and the registry reads it, so the two can never
// disagree. The registry keeps fill, and whatever it references, for
// its own lifetime. No-op on a disabled registry or a negative rank.
func (r *Registry) RegisterRank(rank int, fill RankFill) {
	if r == nil || rank < 0 || fill == nil {
		return
	}
	r.mu.Lock()
	r.sources = append(r.sources, rankSource{rank: rank, fill: fill})
	r.mu.Unlock()
}

// Disabled is the no-op registry: every method on it is safe and free.
// Holding Disabled instead of a branch on "is telemetry configured"
// keeps instrumented code unconditional.
var Disabled *Registry

// New builds an enabled Registry.
func New(opts ...Option) *Registry {
	r := &Registry{sampleMask: DefaultSampleEvery - 1}
	for _, o := range opts {
		o(r)
	}
	return r
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide shared registry (created on first
// use). It is what ServeMetrics serves when no registry is passed
// explicitly, and the natural home for command-line tools that have
// exactly one engine.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = New() })
	return defaultReg
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// SampleMask returns the sampling mask: a hot-path read is timed when
// its sequence number ANDed with the mask is zero.
func (r *Registry) SampleMask() uint64 {
	if r == nil {
		return ^uint64(0)
	}
	return r.sampleMask
}

// CountOp adds one completed operation. shard is a striping hint
// (typically the rank index) spreading concurrent writers across
// cachelines; any value is safe.
func (r *Registry) CountOp(op Op, shard int) {
	if r == nil {
		return
	}
	r.ops[op].count.AddAt(shard, 1)
}

// CountOpError adds one failed operation (also counted by CountOp —
// errors are a subset, not a disjoint set).
func (r *Registry) CountOpError(op Op, shard int) {
	if r == nil {
		return
	}
	r.ops[op].errors.AddAt(shard, 1)
}

// ObserveOp records one operation's latency.
func (r *Registry) ObserveOp(op Op, shard int, d time.Duration) {
	if r == nil {
		return
	}
	r.ops[op].latency.ObserveAt(shard, d)
}

// ObserveStage records one pipeline-stage duration.
func (r *Registry) ObserveStage(s Stage, shard int, d time.Duration) {
	if r == nil {
		return
	}
	r.stages[s].ObserveAt(shard, d)
}

// AddTrials adds n completed Monte Carlo trials.
func (r *Registry) AddTrials(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.ops[OpTrial].count.Add(uint64(n))
}

// NumChips is the chips per rank the per-chip correction counts cover
// (the 9-chip ECC-DIMM organization).
const NumChips = 9

// StageTimer times consecutive pipeline stages with one clock read per
// boundary. The zero StageTimer (from a disabled or unsampled start)
// is a no-op; it is a value type and never allocates.
type StageTimer struct {
	reg   *Registry
	span  *Span
	shard int
	start time.Time
	last  time.Time
}

// StartStages begins a stage-timing span. Call Mark at each stage
// boundary and Finish at the end of the operation.
func (r *Registry) StartStages(shard int) StageTimer {
	if r == nil {
		return StageTimer{}
	}
	now := time.Now()
	return StageTimer{reg: r, shard: shard, start: now, last: now}
}

// StartStagesSpan begins a stage-timing span that also appends every
// stage boundary to sp as a span event (tracing.go). Unlike the
// sampled StartStages path, a traced operation always times its
// stages — the caller asked for this specific request's breakdown.
func (r *Registry) StartStagesSpan(shard int, sp *Span) StageTimer {
	if r == nil {
		return StageTimer{}
	}
	now := time.Now()
	return StageTimer{reg: r, span: sp, shard: shard, start: now, last: now}
}

// Active reports whether the timer is recording.
func (t *StageTimer) Active() bool { return t.reg != nil }

// Mark records the time since the previous boundary under stage s.
// The inactive case must inline to a register compare: readLocked
// calls Mark at every stage boundary of every read, sampled or not,
// so the slow path is outlined into mark.
func (t *StageTimer) Mark(s Stage) {
	if t.reg == nil {
		return
	}
	t.mark(s)
}

func (t *StageTimer) mark(s Stage) {
	now := time.Now()
	d := now.Sub(t.last)
	t.reg.stages[s].ObserveAt(t.shard, d)
	if t.span != nil {
		t.span.StageEvent(s, d)
	}
	t.last = now
}

// Finish records the whole span as op's latency.
func (t *StageTimer) Finish(op Op) {
	if t.reg == nil {
		return
	}
	t.reg.ops[op].latency.ObserveAt(t.shard, time.Since(t.start))
}
