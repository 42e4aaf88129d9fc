package synergy

// This file is the library's public surface: a curated facade over the
// internal packages, so downstream users import just "synergy".
//
//	mem, _ := synergy.New(synergy.Config{DataLines: 1 << 20, Ranks: 4})
//	mem.Write(7, line)
//	info, err := mem.Read(7, buf)   // err == synergy.ErrAttack on tampering
//
// New returns a multi-rank *Array — the concurrent serving surface.
// Requests to different ranks proceed fully in parallel; ReadBatch and
// WriteBatch group lines by rank and run the groups on the caller's
// goroutine — each batched read line as a Read, each rank's writes under
// one lock acquisition. See the "Concurrency
// contract" section of README.md for exactly what may be called from
// multiple goroutines.
//
// The performance and reliability simulators are exposed through
// convenience entry points (RunExperiment, SimulateReliability); the
// full knob set lives in the commands (cmd/synergy-sim,
// cmd/synergy-faultsim) and benchmarks.

import (
	"context"
	"errors"
	"fmt"

	"synergy/internal/core"
	"synergy/internal/experiments"
	"synergy/internal/persist"
	"synergy/internal/reliability"
	"synergy/internal/telemetry"
)

// LineSize is the protected cacheline size in bytes.
const LineSize = core.LineSize

// Config parameterizes a Synergy secure memory (see core.Config).
// Config.Ranks selects the rank count of the Array New builds
// (default 1; Table III uses 4).
type Config = core.Config

// Memory is one functional Synergy secure rank on a simulated 9-chip
// ECC-DIMM: counter-mode encryption, MAC-in-ECC-chip integrity, Bonsai
// counter tree replay protection, and chipkill-level error correction
// via the 9-chip parity. Array.Rank exposes it for fault injection,
// stats and logs.
type Memory = core.Memory

// Array is a multi-rank memory (Table III: 4 ranks of 9 chips); each
// rank is an independent protection domain, so one chip may fail in
// every rank simultaneously. It is the concurrent serving surface:
// accesses to different ranks proceed in parallel.
type Array = core.Array

// ReadInfo describes corrections performed during a Read.
type ReadInfo = core.ReadInfo

// ScrubReport summarizes a scrub pass: lines scanned, lines corrected,
// and the lines found uncorrectable (poisoned) — the pass logs and
// continues past those instead of aborting.
type ScrubReport = core.ScrubReport

// Scrubber is a background patrol scrubber started by
// Array.StartScrubber; an interrupted pass resumes from per-rank
// cursors on the next tick.
type Scrubber = core.Scrubber

// Sentinel errors. Internal errors wrap these, so errors.Is works
// through any amount of context decoration.
var (
	// ErrAttack is returned when a MAC mismatch cannot be corrected:
	// multi-chip corruption or tampering. The engine fails closed.
	ErrAttack = core.ErrAttack
	// ErrPoisoned is returned by reads of a line that previously
	// declared ErrAttack and has not been repaired since. The engine
	// fails fast instead of re-running reconstruction on every access;
	// a successful Write to the line — or RepairChip after a chip
	// replacement — clears the state.
	ErrPoisoned = core.ErrPoisoned
	// ErrOutOfRange is returned for line indices beyond the configured
	// capacity.
	ErrOutOfRange = core.ErrOutOfRange
	// ErrBadLineSize is returned when a buffer is not exactly LineSize
	// bytes per line.
	ErrBadLineSize = core.ErrBadLineSize
	// ErrUnknownExperiment is returned by RunExperiment for an
	// experiment identifier that names no figure.
	ErrUnknownExperiment = errors.New("synergy: unknown experiment")
	// ErrSnapshotCorrupt is returned by Restore when a snapshot is
	// complete but invalid: a flipped bit, tampering, malformed framing,
	// or verification under the wrong keys. Restore fails closed — no
	// array state changes.
	ErrSnapshotCorrupt = core.ErrSnapshotCorrupt
	// ErrSnapshotTorn is returned by Restore for an incomplete snapshot
	// — a crash truncated the write before the sealed footer landed.
	ErrSnapshotTorn = core.ErrSnapshotTorn
	// ErrSnapshotMismatch is returned by Restore when a valid snapshot
	// describes a different geometry (lines, ranks, counter
	// organization) than the target array.
	ErrSnapshotMismatch = core.ErrSnapshotMismatch
	// ErrNoSnapshot is returned when the snapshot store holds no
	// committed snapshot — the fresh-boot signal.
	ErrNoSnapshot = core.ErrNoSnapshot
	// ErrArrayLive is returned by Array.Restore while background
	// scrubbers are still running; stop them first.
	ErrArrayLive = core.ErrArrayLive
)

// IsFailClosed reports whether err is one of the fail-closed outcomes
// (ErrAttack or ErrPoisoned) — reads that refused to return data rather
// than risk returning wrong data. Callers that only need to distinguish
// "fail closed, data withheld" from "infrastructure error" can branch
// on this instead of testing both sentinels.
func IsFailClosed(err error) bool { return core.IsFailClosed(err) }

// New builds a Synergy memory: cfg.Ranks independent 9-chip ranks
// (default 1) with cfg.DataLines total capacity interleaved across
// them. The returned Array is safe for concurrent use.
//
// With Config.MetadataCache > 0 the engine runs its counter/tree cache
// in write-back mode: hot-line writes advance metadata in the on-chip
// cache and defer sealing + storing to eviction or Array.Flush. Stored
// (module-level) state is then stale between writes and the next
// Flush/Sync; reads, scrubbing, and repair remain fully coherent
// throughout because they consult the cache first. Otherwise every
// write seals and stores its own metadata path before it returns.
func New(cfg Config) (*Array, error) { return core.NewArray(cfg) }

// SnapshotStore is where sealed snapshots are committed and read back:
// a single-slot, last-writer-wins store whose Begin/Commit protocol is
// crash-atomic — a crash mid-write always leaves the previously
// committed snapshot readable. See NewFileStore and NewMemStore.
type SnapshotStore = persist.Store

// NewFileStore builds a crash-atomic file-backed SnapshotStore: the
// snapshot is staged beside path and renamed into place only after a
// full fsync, so path always holds either the old or the new snapshot.
func NewFileStore(path string) *persist.FileStore { return persist.NewFileStore(path) }

// NewMemStore builds an in-memory SnapshotStore — for tests and for
// fault injection (see internal/chaos).
func NewMemStore() *persist.MemStore { return persist.NewMemStore() }

// Restore builds an Array from cfg and loads the store's committed
// snapshot into it — the boot-time recovery path. cfg must describe
// the snapshot's geometry and carry the keys it was sealed under. On
// any verification failure (ErrSnapshotCorrupt, ErrSnapshotTorn,
// ErrSnapshotMismatch, ErrNoSnapshot) no array is returned: a snapshot
// that cannot be proven authentic never yields readable memory.
//
// Checkpointing is the inverse: Array.Snapshot(ctx, store) quiesces
// the array and writes a sealed checkpoint.
func Restore(cfg Config, store SnapshotStore) (*Array, error) {
	return core.RestoreArray(cfg, store)
}

// LineError is one failed line of a batched operation: its position in
// the batch, its (global) line address, and the underlying error.
type LineError = core.LineError

// BatchError reports every line of a ReadBatch/WriteBatch that failed
// at runtime. Malformed requests (wrong buffer size, out-of-range
// address) reject the whole batch up front with a plain wrapped
// sentinel; a well-formed batch attempts every line, serves the
// successes, and collects the failures here, each wrapping the usual
// sentinels — errors.Is(err, ErrPoisoned) is true iff some line failed
// poisoned, and errors.As recovers the *BatchError for the per-line
// detail.
type BatchError = core.BatchError

// Store is the line read/write contract shared by Memory and Array.
type Store = core.Store

// BatchStore is a Store that also serves rank-grouped batched I/O.
type BatchStore = core.BatchStore

// Device adapts a Memory or Array to io.ReaderAt/io.WriterAt. Aligned
// multi-line spans use the store's batched entry points.
type Device = core.Device

// NewDevice wraps a store exposing `lines` cachelines as a byte-
// addressable block device.
func NewDevice(store Store, lines uint64) (*Device, error) {
	return core.NewDevice(store, lines)
}

// ErrorAssessment classifies corrected-error history (§IV-B DoS
// analysis); see Memory.ErrorLog().Analyze.
type ErrorAssessment = core.Assessment

// ChipFault pairs a chip index with a corruption mask for atomic
// multi-chip injection via Memory.InjectTransients.
type ChipFault = core.ChipFault

// Telemetry is the engine's metrics registry: sharded counters,
// sampled latency histograms and the event-sink hook API. Pass one in
// Config.Telemetry and serve it with ServeMetrics. The nil registry
// is valid and records nothing (see TelemetryDisabled).
type Telemetry = telemetry.Registry

// TelemetrySnapshot is a point-in-time copy of a registry — the
// /metrics.json wire format; Sub computes deltas between polls.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryOpSnapshot and TelemetryRankSnapshot are the per-operation
// and per-rank components of a TelemetrySnapshot.
type (
	TelemetryOpSnapshot   = telemetry.OpSnapshot
	TelemetryRankSnapshot = telemetry.RankSnapshot
)

// TelemetrySink receives engine events (corrections, reconstructions,
// poisons, scrub passes, repairs) synchronously as they happen; embed
// TelemetryBaseSink and override the hooks you need. Sinks run under
// engine locks: return quickly and never call back into the emitting
// Memory/Array.
type TelemetrySink = telemetry.Sink

// TelemetryBaseSink is the no-op Sink to embed.
type TelemetryBaseSink = telemetry.BaseSink

// Event payloads delivered to TelemetrySink hooks.
type (
	CorrectionEvent     = telemetry.CorrectionEvent
	ReconstructionEvent = telemetry.ReconstructionEvent
	PoisonEvent         = telemetry.PoisonEvent
	ScrubEvent          = telemetry.ScrubEvent
	RepairEvent         = telemetry.RepairEvent
)

// TelemetryOption configures NewTelemetry; see TelemetrySampleEvery.
type TelemetryOption = telemetry.Option

// TelemetrySampleEvery sets the hot-path latency sampling period
// (default 64; 1 times every read — benchmark mode).
func TelemetrySampleEvery(n int) TelemetryOption { return telemetry.SampleEvery(n) }

// TelemetryDisabled is the nil registry: every operation on it is
// safe and free.
var TelemetryDisabled = telemetry.Disabled

// NewTelemetry builds a registry to pass in Config.Telemetry.
func NewTelemetry(opts ...TelemetryOption) *Telemetry { return telemetry.New(opts...) }

// DefaultTelemetry returns the process-wide shared registry —
// what ServeMetrics serves when no registry is passed explicitly.
func DefaultTelemetry() *Telemetry { return telemetry.Default() }

// Tracing and the anomaly flight recorder (internal/telemetry):
// TraceSpan is one request's span — mint with BeginTraceSpan, hand it
// to Array.ReadTraced/WriteTraced for per-stage events, then offer it
// to a FlightRecorder, which tail-samples anomalous spans into
// per-rank ring buffers (served on /debug/flight).
type (
	TraceSpan      = telemetry.Span
	FlightRecorder = telemetry.FlightRecorder
	FlightConfig   = telemetry.FlightConfig
	FlightStats    = telemetry.FlightStats
	FlightRecord   = telemetry.FlightRecord
)

// BeginTraceSpan starts a span for op, minting a fresh trace ID.
func BeginTraceSpan(op telemetry.Op) *TraceSpan {
	return telemetry.BeginSpan(op, telemetry.TraceID{}, telemetry.SpanID{})
}

// NewFlightRecorder builds an anomaly flight recorder (zero cfg =
// defaults); attach it with Telemetry.SetFlight.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	return telemetry.NewFlightRecorder(cfg)
}

// SLO trackers: per-tenant availability/latency objectives with
// multi-window burn-rate alerting, exported as synergy_slo_* series.
type (
	SLOConfig   = telemetry.SLOConfig
	SLOTracker  = telemetry.SLOTracker
	SLOSnapshot = telemetry.SLOSnapshot
)

// NewSLO builds a tracker (zero cfg = 99.9% availability, p99 < 5ms);
// register it with Telemetry.RegisterSLO to export and snapshot it.
func NewSLO(cfg SLOConfig) *SLOTracker { return telemetry.NewSLO(cfg) }

// Reliability policies for SimulateReliability.
const (
	PolicyNoECC    = reliability.NoECC
	PolicySECDED   = reliability.SECDED
	PolicyChipkill = reliability.Chipkill
	PolicySynergy  = reliability.Synergy
)

// ReliabilityResult is a Monte Carlo outcome (probability of system
// failure over the configured lifetime).
type ReliabilityResult = reliability.Result

// ReliabilityConfig parameterizes the Monte Carlo engine: trials,
// lifetime, scrub interval, ranks, worker-pool size, early stopping
// (TargetCIWidth) and a Progress callback. Per-trial deterministic
// seeding makes results bit-identical for any Workers value.
type ReliabilityConfig = reliability.Config

// SimulateReliability runs the Fig. 11 Monte Carlo for one policy with
// the paper's defaults (Table I rates, 7-year lifetime, 4 ranks × 9
// chips) at the given trial count. The engine parallelizes across
// GOMAXPROCS workers; results do not depend on the worker count.
func SimulateReliability(policy reliability.Policy, trials int) (ReliabilityResult, error) {
	cfg := reliability.DefaultConfig()
	if trials > 0 {
		cfg.Trials = trials
	}
	return reliability.Simulate(policy, cfg)
}

// SimulateReliabilityContext is SimulateReliability with cancellation:
// when ctx is cancelled the Monte Carlo stops at the next block
// boundary and returns the partial result with ctx's error.
func SimulateReliabilityContext(ctx context.Context, policy reliability.Policy, trials int) (ReliabilityResult, error) {
	cfg := reliability.DefaultConfig()
	if trials > 0 {
		cfg.Trials = trials
	}
	return reliability.SimulateContext(ctx, policy, cfg)
}

// SimulateReliabilityAll runs the full Fig. 11 policy sweep (NoECC,
// SECDED, Chipkill, Synergy) under one configuration; all policies are
// evaluated against the same deterministic fault histories, so the
// reported ratios use common random numbers. Start from
// DefaultReliabilityConfig and override the knobs you need.
func SimulateReliabilityAll(cfg ReliabilityConfig) ([]ReliabilityResult, error) {
	return reliability.SimulateAll(cfg)
}

// SimulateReliabilityAllContext is SimulateReliabilityAll with
// cancellation: the sweep stops at the first interrupted policy and
// returns the policies completed before it with ctx's error.
func SimulateReliabilityAllContext(ctx context.Context, cfg ReliabilityConfig) ([]ReliabilityResult, error) {
	return reliability.SimulateAllContext(ctx, cfg)
}

// DefaultReliabilityConfig returns the paper's Fig. 11 evaluation
// setup (Table I rates, 7-year lifetime, 4 ranks × 9 chips, 200k
// trials).
func DefaultReliabilityConfig() ReliabilityConfig {
	return reliability.DefaultConfig()
}

// Experiment identifies one of the paper's figures.
type Experiment string

// The regenerable performance experiments (Fig. 11 is reliability; use
// SimulateReliability or cmd/synergy-faultsim).
const (
	Figure6  Experiment = "fig6"
	Figure8  Experiment = "fig8"
	Figure9  Experiment = "fig9"
	Figure10 Experiment = "fig10"
	Figure12 Experiment = "fig12"
	Figure13 Experiment = "fig13"
	Figure14 Experiment = "fig14"
	Figure16 Experiment = "fig16"
	Figure17 Experiment = "fig17"
)

// ExperimentResult carries a regenerated figure: a rendered table and
// the headline summary numbers the paper quotes.
type ExperimentResult struct {
	ID      string
	Title   string
	Table   string
	Summary map[string]float64
}

// experimentOptions collects the knobs ExperimentOption functions set.
type experimentOptions struct {
	baseInstr uint64
	workers   int
	progress  func(completed, total int)
	ctx       context.Context
}

// ExperimentOption configures RunExperiment.
type ExperimentOption func(*experimentOptions)

// WithInstructionBudget sets the per-core instruction budget (0 = the
// default 1M used for the checked-in EXPERIMENTS.md).
func WithInstructionBudget(n uint64) ExperimentOption {
	return func(o *experimentOptions) { o.baseInstr = n }
}

// WithWorkers sets the number of goroutines pre-running the sweep's
// (workload, spec) pairs (0 = one per CPU). Each pair is an independent
// simulation, so the worker count never changes results.
func WithWorkers(n int) ExperimentOption {
	return func(o *experimentOptions) { o.workers = n }
}

// WithProgress installs a callback invoked after each (workload, spec)
// pair of the sweep completes. Calls are serialized; keep the callback
// fast.
func WithProgress(fn func(completed, total int)) ExperimentOption {
	return func(o *experimentOptions) { o.progress = fn }
}

// WithContext makes the sweep cancellable: once ctx is done, pending
// (workload, spec) pairs are skipped and RunExperiment returns ctx's
// error (wrapped). Pairs already simulating finish first.
func WithContext(ctx context.Context) ExperimentOption {
	return func(o *experimentOptions) { o.ctx = ctx }
}

// RunExperiment regenerates one figure of the paper's evaluation over
// the full 29-workload roster.
func RunExperiment(exp Experiment, opts ...ExperimentOption) (ExperimentResult, error) {
	var o experimentOptions
	for _, opt := range opts {
		opt(&o)
	}
	eopt := experiments.Options{BaseInstr: o.baseInstr, Progress: o.progress, Context: o.ctx}
	var r *experiments.Runner
	if o.workers > 0 {
		eopt.Parallelism = o.workers
		r = experiments.NewRunner(eopt)
	} else {
		r = experiments.ParallelRunner(eopt)
	}
	fns := map[Experiment]func() (experiments.Figure, error){
		Figure6:  r.Figure6,
		Figure8:  r.Figure8,
		Figure9:  r.Figure9,
		Figure10: r.Figure10,
		Figure12: r.Figure12,
		Figure13: r.Figure13,
		Figure14: r.Figure14,
		Figure16: r.Figure16,
		Figure17: r.Figure17,
	}
	fn, ok := fns[exp]
	if !ok {
		return ExperimentResult{}, fmt.Errorf("%w: %q", ErrUnknownExperiment, string(exp))
	}
	fig, err := fn()
	if err != nil {
		return ExperimentResult{}, err
	}
	return ExperimentResult{
		ID:      fig.ID,
		Title:   fig.Title,
		Table:   fig.Table.String(),
		Summary: fig.Summary,
	}, nil
}
