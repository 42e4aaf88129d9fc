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
// WriteBatch serve their lines one Read or Write at a time, in caller
// order, on the caller's goroutine. See the "Concurrency contract"
// section of README.md for exactly what may be called from multiple
// goroutines.
//
// The performance and reliability simulators are exposed through
// convenience entry points (RunExperiment, SimulateReliability); the
// full knob set lives in the one command, cmd/synergy (its sim and
// faultsim subcommands).

import (
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

// Rank is one 9-chip rank of an Array, as Array.Rank returns it: the
// fault-injection and inspection handle (InjectTransient(s),
// InjectPermanent, ClearFault, FlushNodeCache, ErrorLog, KnownBadChip,
// IsPoisoned, Stats, Module, Layout). Reads and writes go through the
// Array.
type Rank = core.Memory

// Array is a Synergy secure memory of one or more ranks (Table III: 4
// ranks of 9 chips): counter-mode encryption, MAC-in-ECC-chip
// integrity, Bonsai counter tree replay protection, and chipkill-level
// error correction via the 9-chip parity. Each rank is an independent
// protection domain, so one chip may fail in every rank simultaneously.
// It is the only type that serves reads and writes, and the concurrent
// serving surface: accesses to different ranks proceed in parallel.
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
// sentinel; a well-formed batch runs each line as its single-line op,
// serves the successes, and collects the failures here, each wrapping
// the usual sentinels — errors.Is(err, ErrPoisoned) is true iff some
// line failed poisoned, and errors.As recovers the *BatchError for the
// per-line detail.
type BatchError = core.BatchError

// Device adapts an Array to io.ReaderAt/io.WriterAt: one Read or Write
// per line, stopping at the first failing line with the byte count
// before it.
type Device = core.Device

// NewDevice wraps a as a byte-addressable block device of
// a.DataLines() cachelines.
func NewDevice(a *Array) (*Device, error) {
	return core.NewDevice(a)
}

// ErrorAssessment classifies corrected-error history (§IV-B DoS
// analysis); see Rank.ErrorLog().Analyze.
type ErrorAssessment = core.Assessment

// ChipFault pairs a chip index with a corruption mask for atomic
// multi-chip injection via Rank.InjectTransients.
type ChipFault = core.ChipFault

// Telemetry is the engine's metrics registry: sharded counters,
// sampled latency histograms, scrape-time views of each rank's engine
// counts and the event-sink hook API. Pass one in Config.Telemetry and
// serve it with ServeMetrics. The nil registry is valid and records
// nothing (see TelemetryDisabled).
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
// Array or Rank, nor into Telemetry.Snapshot or WritePrometheus.
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

// Experiment identifies one of the paper's figures.
type Experiment string

// The regenerable performance experiments (Fig. 11 is reliability; use
// SimulateReliability or `synergy faultsim`).
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
	progress  func(completed, total int)
}

// ExperimentOption configures RunExperiment.
type ExperimentOption func(*experimentOptions)

// WithInstructionBudget sets the per-core instruction budget (0 = the
// default 1M used for the checked-in EXPERIMENTS.md).
func WithInstructionBudget(n uint64) ExperimentOption {
	return func(o *experimentOptions) { o.baseInstr = n }
}

// WithProgress installs a callback invoked after each (workload, spec)
// pair of the sweep completes. Calls are serialized; keep the callback
// fast.
func WithProgress(fn func(completed, total int)) ExperimentOption {
	return func(o *experimentOptions) { o.progress = fn }
}

// RunExperiment regenerates one figure of the paper's evaluation over
// the full 29-workload roster.
func RunExperiment(exp Experiment, opts ...ExperimentOption) (ExperimentResult, error) {
	var o experimentOptions
	for _, opt := range opts {
		opt(&o)
	}
	r := experiments.ParallelRunner(experiments.Options{
		BaseInstr: o.baseInstr, Progress: o.progress,
	})
	for _, f := range experiments.PerfFigures {
		if f.ID != string(exp) {
			continue
		}
		fig, err := f.Run(r)
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
	return ExperimentResult{}, fmt.Errorf("%w: %q", ErrUnknownExperiment, string(exp))
}
