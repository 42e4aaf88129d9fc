package telemetry

// Sink receives engine events synchronously as they happen. The engine
// calls sinks from inside its locked sections (a correction fires
// mid-read, under the rank lock), so implementations must be fast,
// must not block, and must never call back into the Array or rank that
// emitted the event — that deadlocks. Nor may a hook call
// Registry.Snapshot or WritePrometheus: a snapshot takes every
// registered rank's read lock, including the one the hook runs under.
// Fan slow consumers out through a channel the sink owns. Sinks only
// see events; the per-rank counts exporters show are read from the
// engine, attached sink or not.
//
// BaseSink provides no-op defaults: embed it and override the hooks
// you need, and new hooks added later won't break your build.
type Sink interface {
	// OnCorrection fires after a line (data, counter or tree) was
	// successfully repaired and committed back to the module.
	OnCorrection(CorrectionEvent)
	// OnReconstruction fires after each run of the candidate
	// reconstruction loop, successful or not (a failed run is the
	// prelude to ErrAttack).
	OnReconstruction(ReconstructionEvent)
	// OnPoison fires when a line is poisoned (uncorrectable error
	// declared) and again, with Healed set, when a write or repair
	// clears it.
	OnPoison(PoisonEvent)
	// OnScrubPass fires when a scrub scan reaches the end of a rank's
	// data region (foreground Scrub, or the completing segment of a
	// resumed background pass).
	OnScrubPass(ScrubEvent)
	// OnRepair fires after a RepairChip sweep completes.
	OnRepair(RepairEvent)
}

// CorrectionEvent describes one successful line repair.
type CorrectionEvent struct {
	// Rank is the emitting rank's index (0 for a standalone Memory).
	Rank int
	// Chip is the chip the repair identified as faulty (0..8).
	Chip int
	// Region names the repaired region: "data", "counter" or "tree".
	Region string
	// Line is the module line address that was repaired.
	Line uint64
	// UsedParityP marks corrections that needed the parity-of-parities.
	UsedParityP bool
	// Preemptive marks repairs served by the §IV-A condemned-chip fast
	// path rather than the reconstruction loop.
	Preemptive bool
}

// ReconstructionEvent describes one run of the reconstruction attempt
// loop (up to 16 candidates for a data line, up to 8 for a node line).
type ReconstructionEvent struct {
	Rank int
	// Line is the module line address being reconstructed.
	Line uint64
	// Region names the line's region: "data", "counter" or "tree".
	Region string
	// Attempts is the number of MAC recomputations the run spent. A
	// data-line run's MAC-chip candidate reuses the MAC already computed
	// over the as-read line and is not counted here, though
	// synergy_reconstruction_attempts_total counts it.
	Attempts int
	// Success reports whether any candidate verified.
	Success bool
}

// PoisonEvent describes a line entering (or, Healed, leaving) the
// poisoned state.
type PoisonEvent struct {
	Rank int
	// Line is the rank-local data line index.
	Line uint64
	// Healed is false when the line was just poisoned, true when a
	// write or repair cleared the poison.
	Healed bool
}

// ScrubEvent describes a completed scrub scan over one rank.
type ScrubEvent struct {
	Rank int
	// Scanned, Corrected and Poisoned summarize the completing segment
	// (the whole pass when it ran uninterrupted; the final resumed
	// segment otherwise).
	Scanned   uint64
	Corrected int
	Poisoned  int
}

// RepairEvent describes a completed RepairChip sweep.
type RepairEvent struct {
	Rank int
	// Chip is the replaced chip.
	Chip int
}

// BaseSink implements Sink with no-ops; embed it to implement only the
// hooks you care about.
type BaseSink struct{}

func (BaseSink) OnCorrection(CorrectionEvent)         {}
func (BaseSink) OnReconstruction(ReconstructionEvent) {}
func (BaseSink) OnPoison(PoisonEvent)                 {}
func (BaseSink) OnScrubPass(ScrubEvent)               {}
func (BaseSink) OnRepair(RepairEvent)                 {}

// Attach registers a sink; events emitted after Attach returns are
// delivered to it. Attach is safe to call while the engine is serving
// traffic; sinks cannot be detached (create a fresh Registry for a
// bounded observation window instead).
func (r *Registry) Attach(s Sink) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var cur []Sink
	if p := r.sinks.Load(); p != nil {
		cur = *p
	}
	grown := make([]Sink, len(cur)+1)
	copy(grown, cur)
	grown[len(cur)] = s
	r.sinks.Store(&grown)
}

// sinkList returns the registered sinks (read-only, lock-free).
func (r *Registry) sinkList() []Sink {
	if r == nil {
		return nil
	}
	if p := r.sinks.Load(); p != nil {
		return *p
	}
	return nil
}

// EmitCorrection fans a correction out to the sinks.
func (r *Registry) EmitCorrection(e CorrectionEvent) {
	for _, s := range r.sinkList() {
		s.OnCorrection(e)
	}
}

// EmitReconstruction fans a reconstruction-loop run out to the sinks.
func (r *Registry) EmitReconstruction(e ReconstructionEvent) {
	for _, s := range r.sinkList() {
		s.OnReconstruction(e)
	}
}

// EmitPoison fans a poison (or heal) event out to the sinks.
func (r *Registry) EmitPoison(e PoisonEvent) {
	for _, s := range r.sinkList() {
		s.OnPoison(e)
	}
}

// EmitScrubPass fans a completed per-rank scrub scan out to the sinks.
func (r *Registry) EmitScrubPass(e ScrubEvent) {
	for _, s := range r.sinkList() {
		s.OnScrubPass(e)
	}
}

// EmitRepair fans a completed RepairChip sweep out to the sinks.
func (r *Registry) EmitRepair(e RepairEvent) {
	for _, s := range r.sinkList() {
		s.OnRepair(e)
	}
}
