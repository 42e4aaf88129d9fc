// Package telemetry is the engine's low-overhead instrumentation
// layer: sharded atomic counters, fixed-bucket log2 latency histograms,
// per-stage timing of the secure-read pipeline (the paper's Fig. 5
// cost breakdown, produced from a live run instead of a benchmark),
// and an event-hook Sink API that the core engine, the background
// scrubber and the chaos harness publish into.
//
// # Overhead contract
//
// The record path never allocates, and a disabled registry (the nil
// *Registry, exported as Disabled) costs one pointer comparison per
// call — every method is nil-receiver safe, so instrumented code holds
// a *Registry unconditionally and never branches on configuration.
//
// Counters are exact. Latency histograms for the single-line read —
// the ~300ns hot path — are *sampled* (default 1 in 64 reads): a
// single clock read costs ~25ns, so timing five pipeline stages on
// every read would more than double the hot path, while sampling keeps
// the steady-state overhead within the ≤5% budget and still converges
// on the true distribution within a second of traffic. Coarse
// operations (writes, scrub segments, repairs) are timed on every
// call; their cost dwarfs the clock's.
//
// # Concurrency
//
// Everything is safe for concurrent use. Counters and histograms
// stripe their hot words across shards to keep cross-rank traffic off
// shared cachelines; exact totals are summed at read time. Sinks are
// invoked synchronously from inside the engine (often under a rank
// lock): implementations must return quickly and must never call back
// into the Memory/Array that emitted the event.
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
	// OpScrub is one scrub segment: a ScrubFrom call scanning from its
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
// latency observations: one in every 64 reads gets stage-by-stage
// clock reads; the rest pay only counter updates.
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
// sinks that instrumented components record into. The zero *Registry
// (nil, exported as Disabled) is valid and records nothing.
type Registry struct {
	sampleMask uint64

	ops    [NumOps]opMetrics
	stages [NumStages]Histogram

	mu     sync.Mutex
	ranks  atomic.Pointer[[]*RankMetrics]
	sinks  atomic.Pointer[[]Sink]
	locals atomic.Pointer[[]*LocalOpCount]
	slos   atomic.Pointer[[]*SLOTracker]
	flight atomic.Pointer[FlightRecorder]
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

// LocalOpCount is a dedicated single-writer accumulator for one
// engine's running total of one operation (see Registry.LocalOp).
type LocalOpCount struct {
	op Op
	n  atomic.Uint64
	_  [48]byte // keep the hot word off shared cachelines
}

// Set publishes the writer's running total. A plain atomic store, no
// read-modify-write: cheaper than the locked add behind CountOp,
// which is what keeps per-read counting inside the hot-path budget.
// Safe only because a LocalOpCount has exactly one writer.
func (c *LocalOpCount) Set(n uint64) {
	if c != nil {
		c.n.Store(n)
	}
}

// LocalOp allocates a dedicated accumulator that exporters fold into
// op's total at read time. For hot paths where even an uncontended
// atomic add is measurable: the single owner keeps a plain running
// count under its own serialization (core.Memory counts reads under
// the rank lock) and publishes it with Set. Returns nil on a disabled
// registry; Set on nil is a no-op.
func (r *Registry) LocalOp(op Op) *LocalOpCount {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var cur []*LocalOpCount
	if ls := r.locals.Load(); ls != nil {
		cur = *ls
	}
	c := &LocalOpCount{op: op}
	grown := make([]*LocalOpCount, len(cur)+1)
	copy(grown, cur)
	grown[len(cur)] = c
	r.locals.Store(&grown)
	return c
}

// opCount returns op's total: the striped counter plus every local
// accumulator registered for op.
func (r *Registry) opCount(op Op) uint64 {
	n := r.ops[op].count.Load()
	if ls := r.locals.Load(); ls != nil {
		for _, c := range *ls {
			if c.op == op {
				n += c.n.Load()
			}
		}
	}
	return n
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

// Rank returns the per-rank metrics block for rank i, creating it (and
// any lower-numbered blocks) on first use. Returns nil on a disabled
// registry or a negative rank. The returned pointer is stable: callers
// cache it.
func (r *Registry) Rank(i int) *RankMetrics {
	if r == nil || i < 0 {
		return nil
	}
	if rs := r.ranks.Load(); rs != nil && i < len(*rs) {
		return (*rs)[i]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var cur []*RankMetrics
	if rs := r.ranks.Load(); rs != nil {
		cur = *rs
	}
	if i < len(cur) {
		return cur[i]
	}
	grown := make([]*RankMetrics, i+1)
	copy(grown, cur)
	for k := len(cur); k <= i; k++ {
		grown[k] = &RankMetrics{rank: k}
	}
	r.ranks.Store(&grown)
	return grown[i]
}

// rankList returns the current per-rank blocks (read-only).
func (r *Registry) rankList() []*RankMetrics {
	if r == nil {
		return nil
	}
	if rs := r.ranks.Load(); rs != nil {
		return *rs
	}
	return nil
}

// RankMetrics holds one rank's event counters. All fields are updated
// through Registry.Emit* and read via Snapshot / WritePrometheus.
type RankMetrics struct {
	rank                   int
	corrections            [NumChips]Counter
	preemptive             Counter
	reconstructions        Counter
	reconstructionAttempts Counter
	reconstructionFailures Counter
	poisoned               Counter
	healed                 Counter
	failClosed             Counter
	repairs                Counter
	scrubSegments          Counter
	scrubPasses            Counter
	scrubScanned           Counter
	scrubCorrected         Counter

	// Optimistic read-path counters: clean reads served entirely under
	// the shared lock, attempts retried after a generation conflict, and
	// escalations to the exclusive path by reason. Striped — many
	// concurrent readers record here, which is the whole point of the
	// fast path.
	fastReads   Counter
	genRetries  Counter
	escalations [NumEscReasons]Counter

	// Metadata-cache gauges/counters, published by the owning engine
	// with plain atomic stores at sampled operation boundaries (exactly
	// one writer per rank block — the rank's Memory, under its lock) so
	// the cache's map probes never pay read-modify-write atomics.
	metaHits       atomic.Uint64
	metaMisses     atomic.Uint64
	metaWritebacks atomic.Uint64
	metaDirty      atomic.Uint64
}

// SetMetaCache publishes the rank's metadata-cache running totals:
// path-load hits and misses, dirty entries sealed and written back,
// and the current dirty-entry count (a gauge). Single-writer: only the
// rank's owning engine may call this. Nil-receiver safe.
func (rm *RankMetrics) SetMetaCache(hits, misses, writebacks, dirty uint64) {
	if rm == nil {
		return
	}
	rm.metaHits.Store(hits)
	rm.metaMisses.Store(misses)
	rm.metaWritebacks.Store(writebacks)
	rm.metaDirty.Store(dirty)
}

// NumChips is the chips per rank the per-chip correction counters
// cover (the 9-chip ECC-DIMM organization).
const NumChips = 9

// CountFailClosed adds one fail-closed read outcome (ErrAttack or a
// poisoned-line fast fail) for rank i.
func (r *Registry) CountFailClosed(rank, shard int) {
	if rm := r.Rank(rank); rm != nil {
		rm.failClosed.AddAt(shard, 1)
	}
}

// CountPreemptive adds one read served via the §IV-A condemned-chip
// fast path. Counter-only — no sink fan-out: while a chip is
// condemned this fires on every read, far too hot for per-event
// delivery (corrections that commit repairs still reach sinks via
// EmitCorrection).
func (r *Registry) CountPreemptive(rank, shard int) {
	if rm := r.Rank(rank); rm != nil {
		rm.preemptive.AddAt(shard, 1)
	}
}

// CountFastRead adds one clean read served entirely under the shared
// lock (the optimistic fast path; a pre-emptive read served there
// counts through CountPreemptive instead). shard spreads concurrent
// readers of one rank across counter stripes — pass something
// reader-local, e.g. the line index.
func (r *Registry) CountFastRead(rank, shard int) {
	if rm := r.Rank(rank); rm != nil {
		rm.fastReads.AddAt(shard, 1)
	}
}

// CountGenRetry adds one optimistic read attempt retried after a
// generation conflict (a concurrent mutator advanced the line's
// generation between snapshot and verify).
func (r *Registry) CountGenRetry(rank, shard int) {
	if rm := r.Rank(rank); rm != nil {
		rm.genRetries.AddAt(shard, 1)
	}
}

// CountEscalation adds one optimistic read attempt that gave up and
// took the exclusive slow path, by reason.
func (r *Registry) CountEscalation(rank int, reason EscReason, shard int) {
	if rm := r.Rank(rank); rm != nil && reason < NumEscReasons {
		rm.escalations[reason].AddAt(shard, 1)
	}
}

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
