package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"synergy/internal/ctrenc"
	"synergy/internal/gmac"
	"synergy/internal/telemetry"
)

// Array is a multi-rank Synergy memory: the Table III system has 2
// channels × 2 ranks, and each 9-chip rank is an independent protection
// domain (its own integrity tree root, parity region, and reconstruction
// scoreboard) — exactly the grouping the reliability model's Fig. 11
// analysis assumes. Lines interleave across ranks the way cachelines
// interleave across channels, so streaming load spreads.
//
// Because ranks are independent, an Array survives one failed chip *per
// rank* simultaneously — four concurrent chip failures on the default
// system — where a single rank tolerates one.
//
// Array is safe for concurrent use and is the intended serving surface:
// each rank carries its own lock, and the router holds no state of its
// own, so requests to different ranks proceed fully in parallel. Within
// one rank, accesses serialize the way a per-rank controller queue
// would. ReadBatch/WriteBatch serve their lines one Read or Write at a
// time, in caller order, on the caller's goroutine; no lock is held
// across lines. Parallelism across ranks comes from concurrent callers,
// not from one batch.
type Array struct {
	ranks        []*Memory
	linesPerRank uint64
	dataLines    uint64

	// scrubbers counts live background patrol scrubbers on this array.
	// Restore refuses to run while it is non-zero: a patrol pass racing
	// a whole-device install would verify a mix of old and new state.
	scrubbers atomic.Int64
}

// NewArray builds an Array of cfg.Ranks independent Synergy ranks
// (default 1), with cfg.DataLines total capacity split across them.
// Keys are shared (one memory controller; fixed test keys when unset),
// and so are the pad engine and MAC built from them: both are read-only
// after construction, and one 16 KB multiply table stays in cache
// instead of one per rank. Per-rank state is independent.
func NewArray(cfg Config) (*Array, error) {
	ranks := cfg.Ranks
	if ranks == 0 {
		ranks = 1
	}
	if ranks < 0 {
		return nil, errors.New("core: Config.Ranks must not be negative")
	}
	if cfg.DataLines == 0 {
		return nil, errors.New("core: Config.DataLines must be positive")
	}
	encKey, macKey := cfg.EncKey, cfg.MACKey
	if encKey == nil {
		encKey = make([]byte, ctrenc.KeySize)
		encKey[0] = 0x01
	}
	if macKey == nil {
		macKey = make([]byte, gmac.KeySize)
		macKey[0] = 0x02
	}
	enc, err := ctrenc.New(encKey)
	if err != nil {
		return nil, fmt.Errorf("core: bad encryption key: %w", err)
	}
	mac, err := gmac.New(macKey)
	if err != nil {
		return nil, fmt.Errorf("core: bad MAC key: %w", err)
	}
	perRank := (cfg.DataLines + uint64(ranks) - 1) / uint64(ranks)
	a := &Array{linesPerRank: perRank, dataLines: cfg.DataLines}
	for r := 0; r < ranks; r++ {
		rcfg := cfg
		rcfg.Ranks = 1
		rcfg.DataLines = perRank
		m, err := newRank(rcfg, enc, mac, r)
		if err != nil {
			return nil, fmt.Errorf("core: rank %d: %w", r, err)
		}
		a.ranks = append(a.ranks, m)
	}
	return a, nil
}

// Ranks returns the rank count.
func (a *Array) Ranks() int { return len(a.ranks) }

// DataLines returns the total capacity in cachelines.
func (a *Array) DataLines() uint64 { return a.dataLines }

// Rank returns rank i's fault-injection and inspection handle (Inject*,
// ClearFault, FlushNodeCache, ErrorLog, KnownBadChip, IsPoisoned,
// Stats, Module, Layout); reads and writes go through the Array. It
// returns nil when i is not in [0, Ranks()) — no public entry point
// panics on hostile indices.
func (a *Array) Rank(i int) *Memory {
	if i < 0 || i >= len(a.ranks) {
		return nil
	}
	return a.ranks[i]
}

// route maps a global line to (rank, line-within-rank).
func (a *Array) route(line uint64) (*Memory, uint64, error) {
	if line >= a.dataLines {
		return nil, 0, fmt.Errorf("core: data line %d out of range [0,%d): %w", line, a.dataLines, ErrOutOfRange)
	}
	r := int(line % uint64(len(a.ranks)))
	return a.ranks[r], line / uint64(len(a.ranks)), nil
}

// Read decrypts global data line i into dst.
func (a *Array) Read(i uint64, dst []byte) (ReadInfo, error) {
	return a.ReadTraced(i, dst, nil)
}

// Write encrypts and stores global data line i.
func (a *Array) Write(i uint64, plain []byte) error {
	return a.WriteTraced(i, plain, nil)
}

// ReadTraced is Read carrying a trace span: the span is located at the
// serving rank (with the caller's global line index) and the rank's
// pipeline stages and escalations become span events. Every span use
// is nil-safe, so a nil span is exactly Read.
func (a *Array) ReadTraced(i uint64, dst []byte, sp *telemetry.Span) (ReadInfo, error) {
	m, inner, err := a.route(i)
	if err != nil {
		return ReadInfo{}, err
	}
	sp.Locate(m.telRank, i)
	return m.readTraced(inner, dst, sp)
}

// WriteTraced is Write carrying a trace span (see ReadTraced).
func (a *Array) WriteTraced(i uint64, plain []byte, sp *telemetry.Span) error {
	m, inner, err := a.route(i)
	if err != nil {
		return err
	}
	sp.Locate(m.telRank, i)
	return m.writeTraced(inner, plain, sp)
}

// ReadBatch decrypts lines[k] into dst[k*LineSize:(k+1)*LineSize] for
// every k, each line one Read, in caller order, so each line takes
// exactly the path a single read would. Duplicate lines are allowed. A
// malformed batch is rejected whole; otherwise every line is attempted
// and per-line failures collect into a *BatchError carrying the
// caller's batch indices and global line addresses (errors.Is still
// matches the wrapped sentinels), so a degraded-mode caller can skip or
// retry exactly the failed indices; dst and infos are valid for every
// index not listed in it.
func (a *Array) ReadBatch(lines []uint64, dst []byte) ([]ReadInfo, error) {
	infos := make([]ReadInfo, len(lines))
	err := a.ReadBatchInto(lines, dst, infos)
	return infos, err
}

// ReadBatchInto is ReadBatch writing into a caller-owned infos slice
// (len(infos) must equal len(lines)) — the steady-state form that
// allocates nothing on the success path.
func (a *Array) ReadBatchInto(lines []uint64, dst []byte, infos []ReadInfo) error {
	if err := checkBatch(lines, dst, len(infos), a.dataLines); err != nil {
		return err
	}
	var be *BatchError
	for k, line := range lines {
		info, err := a.Read(line, dst[k*LineSize:(k+1)*LineSize])
		infos[k] = info
		if err != nil {
			be = be.add(k, line, err)
		}
	}
	return be.orNil()
}

// WriteBatch stores src[k*LineSize:(k+1)*LineSize] at lines[k] for
// every k, each line one Write, in caller order, with the same
// rejection and per-line *BatchError semantics as ReadBatch. Failed
// lines keep an unspecified but integrity-consistent state (old or new
// contents). A duplicated line is written once per copy, so its last
// copy wins.
func (a *Array) WriteBatch(lines []uint64, src []byte) error {
	if err := checkBatch(lines, src, len(lines), a.dataLines); err != nil {
		return err
	}
	var be *BatchError
	for k, line := range lines {
		if err := a.Write(line, src[k*LineSize:(k+1)*LineSize]); err != nil {
			be = be.add(k, line, err)
		}
	}
	return be.orNil()
}

// globalLine maps a rank-local data line back to its global address
// (the inverse of route).
func (a *Array) globalLine(rank int, inner uint64) uint64 {
	return inner*uint64(len(a.ranks)) + uint64(rank)
}

// Scrub scrubs every rank, merging the per-rank reports (Poisoned
// holds global line addresses, sorted ascending). Ranks are scrubbed
// in parallel by a worker pool bounded by GOMAXPROCS — scrubbing is
// pure CPU (MAC walks), so more workers than processors only adds
// contention. Each rank's pass takes its lock per line, so foreground
// traffic interleaves with the scrub. Uncorrectable lines do not abort
// the pass; they are poisoned and reported. Cancelling ctx stops every
// rank's pass promptly; the merged partial report and an error joining
// each interrupted rank's ctx error are returned.
func (a *Array) Scrub(ctx context.Context) (ScrubReport, error) {
	workers := len(a.ranks)
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	sem := make(chan struct{}, workers)
	errs := make([]error, len(a.ranks))
	reps := make([]ScrubReport, len(a.ranks))
	var wg sync.WaitGroup
	for r := range a.ranks {
		wg.Add(1)
		sem <- struct{}{}
		go func(r int) {
			defer wg.Done()
			defer func() { <-sem }()
			rep, _, serr := a.ranks[r].scrubFrom(ctx, 0)
			for k, inner := range rep.Poisoned {
				rep.Poisoned[k] = a.globalLine(r, inner)
			}
			reps[r] = rep
			if serr != nil {
				errs[r] = fmt.Errorf("core: rank %d: %w", r, serr)
			}
		}(r)
	}
	wg.Wait()
	var total ScrubReport
	for _, rep := range reps {
		total.merge(rep)
	}
	slices.Sort(total.Poisoned)
	return total, errors.Join(errs...)
}

// Poisoned returns the global addresses of every poisoned line across
// all ranks, sorted ascending.
func (a *Array) Poisoned() []uint64 {
	var out []uint64
	for r, m := range a.ranks {
		m.mu.RLock()
		for inner := range m.poisoned {
			out = append(out, a.globalLine(r, inner))
		}
		m.mu.RUnlock()
	}
	slices.Sort(out)
	return out
}

// Flush seals every rank's dirty cached metadata back to its module,
// in rank order. After a nil return, every rank's stored device state
// is externally consistent — bit-identical to a default-config array
// (every write flushes its own path) that served the same operations.
// Call it before snapshotting modules, handing raw device state to
// another consumer, or shutting down. Cancelling ctx stops between
// ranks; already-flushed ranks stay flushed and the ctx error is
// returned (joined with any rank errors).
func (a *Array) Flush(ctx context.Context) error {
	var errs []error
	for r, m := range a.ranks {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			break
		}
		if err := m.flush(); err != nil {
			errs = append(errs, fmt.Errorf("core: rank %d: %w", r, err))
		}
	}
	return errors.Join(errs...)
}

// Sync is Flush without cancellation — the convenience form for defer
// at shutdown.
func (a *Array) Sync() error { return a.Flush(context.Background()) }

// RepairChip models replacing chip on the given rank: the chip's
// faults are cleared, its slice of every line is rebuilt from parity
// under MAC verification, the rank's parity region is recomputed, and
// its scoreboard resets; lines the repair fixed are healed, and any
// still uncorrectable stay poisoned.
func (a *Array) RepairChip(rank, chip int) error {
	if rank < 0 || rank >= len(a.ranks) {
		return fmt.Errorf("core: rank %d out of range [0,%d)", rank, len(a.ranks))
	}
	if err := a.ranks[rank].repairChip(chip); err != nil {
		return fmt.Errorf("core: rank %d: %w", rank, err)
	}
	return nil
}

// Stats aggregates engine counters across ranks.
func (a *Array) Stats() Stats {
	var total Stats
	for _, m := range a.ranks {
		s := m.Stats()
		total.Reads += s.Reads
		total.Writes += s.Writes
		total.MACComputations += s.MACComputations
		total.MismatchesSeen += s.MismatchesSeen
		total.CorrectionEvents += s.CorrectionEvents
		total.ReconstructionAttempts += s.ReconstructionAttempts
		total.ParityPUses += s.ParityPUses
		total.PreemptiveFixes += s.PreemptiveFixes
		total.AttacksDeclared += s.AttacksDeclared
		total.GroupReencryptions += s.GroupReencryptions
		total.GroupLinesReencrypted += s.GroupLinesReencrypted
		total.NodeCacheStops += s.NodeCacheStops
		total.MetaCacheHits += s.MetaCacheHits
		total.MetaCacheMisses += s.MetaCacheMisses
		total.MetaWritebacks += s.MetaWritebacks
		total.MetaFlushes += s.MetaFlushes
		total.LinesPoisoned += s.LinesPoisoned
		total.PoisonFastFails += s.PoisonFastFails
		total.LinesHealed += s.LinesHealed
		total.ChipRepairs += s.ChipRepairs
		total.FastReads += s.FastReads
		total.ReadEscalations += s.ReadEscalations
		total.GenRetries += s.GenRetries
	}
	return total
}

// checkBatch rejects a malformed batch whole, before any line runs: buf
// must hold LineSize bytes per line, infos (the ReadInfo slots the
// caller supplied; writes pass len(lines)) must match the line count,
// and every line must lie in [0, capacity).
func checkBatch(lines []uint64, buf []byte, infos int, capacity uint64) error {
	if len(buf) != len(lines)*LineSize {
		return fmt.Errorf("core: batch needs %d×%d bytes, got %d: %w",
			len(lines), LineSize, len(buf), ErrBadLineSize)
	}
	if infos != len(lines) {
		return fmt.Errorf("core: batch needs %d infos, got %d: %w", len(lines), infos, ErrBadLineSize)
	}
	for _, line := range lines {
		if line >= capacity {
			return fmt.Errorf("core: data line %d out of range [0,%d): %w", line, capacity, ErrOutOfRange)
		}
	}
	return nil
}
