package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

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
// would. ReadBatch/WriteBatch group lines by rank and run the groups one
// after another on the caller's goroutine: a read group serves each line
// as Read does, a write group takes its rank's exclusive lock once.
// Parallelism across ranks comes from concurrent callers, not from one
// batch.
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
// Keys are shared (one memory controller), and so are the pad engine
// and MAC built from them: one 16 KB multiply table stays in cache
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
	enc, mac, err := newCrypto(cfg)
	if err != nil {
		return nil, err
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

// Rank exposes one rank's Memory (fault injection, stats, logs). It
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
	return m.ReadTraced(inner, dst, sp)
}

// WriteTraced is Write carrying a trace span (see ReadTraced).
func (a *Array) WriteTraced(i uint64, plain []byte, sp *telemetry.Span) error {
	m, inner, err := a.route(i)
	if err != nil {
		return err
	}
	sp.Locate(m.telRank, i)
	return m.WriteTraced(inner, plain, sp)
}

// batchPlan is a per-rank slice of one batched request: the rank-local
// line addresses plus each line's position in the caller's order, so
// results scatter back to the right offsets.
type batchPlan struct {
	inner []uint64
	at    []int
}

// arrayBatch is the pooled scratch of one multi-rank batch: the rank
// plans, each rank's outcome, and the gather/scatter staging for line
// bytes and read infos. Rank groups run one at a time, so one staging
// area serves them all, and a steady-state batch allocates nothing.
type arrayBatch struct {
	plans []batchPlan
	errs  []error
	buf   []byte
	infos []ReadInfo
}

var arrayBatchPool = sync.Pool{New: func() any { return new(arrayBatch) }}

// getBatch validates every line and groups the batch by rank into
// pooled scratch; the caller returns it with put.
func (a *Array) getBatch(lines []uint64, buf []byte, perLine int) (*arrayBatch, error) {
	if err := a.checkBatch(lines, buf, perLine); err != nil {
		return nil, err
	}
	b := arrayBatchPool.Get().(*arrayBatch)
	if cap(b.plans) < len(a.ranks) {
		b.plans = make([]batchPlan, len(a.ranks))
		b.errs = make([]error, len(a.ranks))
	}
	b.plans, b.errs = b.plans[:len(a.ranks)], b.errs[:len(a.ranks)]
	for r := range b.plans {
		b.plans[r].inner, b.plans[r].at = b.plans[r].inner[:0], b.plans[r].at[:0]
	}
	n := uint64(len(a.ranks))
	for k, line := range lines {
		p := &b.plans[line%n]
		p.inner = append(p.inner, line/n)
		p.at = append(p.at, k)
	}
	return b, nil
}

// stage returns n lines of staging bytes and read infos.
func (b *arrayBatch) stage(n int) ([]byte, []ReadInfo) {
	if cap(b.buf) < n*LineSize {
		b.buf = make([]byte, n*LineSize)
	}
	if cap(b.infos) < n {
		b.infos = make([]ReadInfo, n)
	}
	return b.buf[:n*LineSize], b.infos[:n]
}

func (b *arrayBatch) put() {
	clear(b.errs)
	arrayBatchPool.Put(b)
}

// mergeBatchErrs folds per-rank batch outcomes into one caller-facing
// error: rank *BatchErrors are remapped to the caller's batch indices
// and global line addresses and merged into a single BatchError;
// anything else (a rank-wide failure) passes through via errors.Join.
func (a *Array) mergeBatchErrs(lines []uint64, plans []batchPlan, errs []error) error {
	var be *BatchError
	var others []error
	for r, rerr := range errs {
		if rerr == nil {
			continue
		}
		var rbe *BatchError
		if errors.As(rerr, &rbe) {
			for _, le := range rbe.Failed {
				gk := plans[r].at[le.Index]
				be = be.add(gk, lines[gk], le.Err)
			}
			continue
		}
		others = append(others, fmt.Errorf("core: rank %d: %w", r, rerr))
	}
	if len(others) > 0 {
		if e := be.orNil(); e != nil {
			others = append(others, e)
		}
		return errors.Join(others...)
	}
	return be.orNil()
}

// ReadBatch decrypts lines[k] into dst[k*LineSize:(k+1)*LineSize] for
// every k. Lines are grouped by rank, one group after another on the
// caller's goroutine, and each line is served as Read serves it.
// Duplicate lines are allowed. Every line is attempted: per-line
// failures collect into a *BatchError carrying the caller's batch
// indices and global line addresses (errors.Is still matches the
// wrapped sentinels), and dst and infos are valid for every index not
// listed in it.
func (a *Array) ReadBatch(lines []uint64, dst []byte) ([]ReadInfo, error) {
	infos := make([]ReadInfo, len(lines))
	err := a.ReadBatchInto(lines, dst, infos)
	return infos, err
}

// checkBatch validates batch geometry: the buffer size and every line's
// range.
func (a *Array) checkBatch(lines []uint64, buf []byte, perLine int) error {
	if len(buf) != len(lines)*perLine {
		return fmt.Errorf("core: batch needs %d×%d bytes, got %d: %w",
			len(lines), perLine, len(buf), ErrBadLineSize)
	}
	for _, line := range lines {
		if line >= a.dataLines {
			return fmt.Errorf("core: data line %d out of range [0,%d): %w", line, a.dataLines, ErrOutOfRange)
		}
	}
	return nil
}

// ReadBatchInto is ReadBatch writing into a caller-owned infos slice
// (len(infos) must equal len(lines)) — the steady-state form that
// allocates nothing on the success path.
func (a *Array) ReadBatchInto(lines []uint64, dst []byte, infos []ReadInfo) error {
	if len(infos) != len(lines) {
		return fmt.Errorf("core: batch needs %d infos, got %d: %w", len(lines), len(infos), ErrBadLineSize)
	}
	if len(a.ranks) == 1 {
		// Single rank preserves caller order (inner[k] == lines[k]), so
		// the batch runs in place: no plan, no scatter copy, and the
		// rank's BatchError already carries global indices.
		if err := a.checkBatch(lines, dst, LineSize); err != nil {
			return err
		}
		return a.ranks[0].ReadBatchInto(lines, dst, infos)
	}
	b, err := a.getBatch(lines, dst, LineSize)
	if err != nil {
		return err
	}
	defer b.put()
	for r := range b.plans {
		p := &b.plans[r]
		if len(p.inner) == 0 {
			continue
		}
		buf, rinfos := b.stage(len(p.inner))
		b.errs[r] = a.ranks[r].ReadBatchInto(p.inner, buf, rinfos)
		for j, k := range p.at {
			copy(dst[k*LineSize:(k+1)*LineSize], buf[j*LineSize:(j+1)*LineSize])
			infos[k] = rinfos[j]
		}
	}
	return a.mergeBatchErrs(lines, b.plans, b.errs)
}

// WriteBatch stores src[k*LineSize:(k+1)*LineSize] at lines[k] for
// every k, with the same rank grouping and per-line *BatchError
// semantics as ReadBatch: every line is attempted, and failed lines
// keep an unspecified but integrity-consistent state (old or new
// contents). A duplicated line lands in one rank group in caller order,
// so its last copy wins.
func (a *Array) WriteBatch(lines []uint64, src []byte) error {
	if len(a.ranks) == 1 {
		if err := a.checkBatch(lines, src, LineSize); err != nil {
			return err
		}
		return a.ranks[0].WriteBatch(lines, src)
	}
	b, err := a.getBatch(lines, src, LineSize)
	if err != nil {
		return err
	}
	defer b.put()
	for r := range b.plans {
		p := &b.plans[r]
		if len(p.inner) == 0 {
			continue
		}
		buf, _ := b.stage(len(p.inner))
		for j, k := range p.at {
			copy(buf[j*LineSize:(j+1)*LineSize], src[k*LineSize:(k+1)*LineSize])
		}
		b.errs[r] = a.ranks[r].WriteBatch(p.inner, buf)
	}
	return a.mergeBatchErrs(lines, b.plans, b.errs)
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
			rep, serr := a.ranks[r].Scrub(ctx)
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
	sort.Slice(total.Poisoned, func(i, j int) bool { return total.Poisoned[i] < total.Poisoned[j] })
	return total, errors.Join(errs...)
}

// Poisoned returns the global addresses of every poisoned line across
// all ranks, sorted ascending.
func (a *Array) Poisoned() []uint64 {
	var out []uint64
	for r, m := range a.ranks {
		for _, inner := range m.Poisoned() {
			out = append(out, a.globalLine(r, inner))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
		if err := m.Flush(); err != nil {
			errs = append(errs, fmt.Errorf("core: rank %d: %w", r, err))
		}
	}
	return errors.Join(errs...)
}

// Sync is Flush without cancellation — the convenience form for defer
// at shutdown.
func (a *Array) Sync() error { return a.Flush(context.Background()) }

// RepairChip repairs chip on the given rank (see Memory.RepairChip).
func (a *Array) RepairChip(rank, chip int) error {
	if rank < 0 || rank >= len(a.ranks) {
		return fmt.Errorf("core: rank %d out of range [0,%d)", rank, len(a.ranks))
	}
	if err := a.ranks[rank].RepairChip(chip); err != nil {
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

// Store is the read/write contract shared by Memory and Array; the
// block-device adapter accepts either.
type Store interface {
	Read(line uint64, dst []byte) (ReadInfo, error)
	Write(line uint64, plain []byte) error
}

// BatchStore is a Store that also serves batched line I/O. Memory and
// Array both implement it; Device uses it to move aligned multi-line
// spans in one call per rank lock instead of one call per line.
type BatchStore interface {
	Store
	ReadBatch(lines []uint64, dst []byte) ([]ReadInfo, error)
	WriteBatch(lines []uint64, src []byte) error
}

var (
	_ BatchStore = (*Memory)(nil)
	_ BatchStore = (*Array)(nil)
)
