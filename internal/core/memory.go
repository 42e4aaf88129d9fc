package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"synergy/internal/ctrenc"
	"synergy/internal/dimm"
	"synergy/internal/gmac"
	"synergy/internal/integrity"
	"synergy/internal/telemetry"
)

// LineSize is the data payload of one cacheline in bytes.
const LineSize = dimm.LineSize

// DefaultFaultThreshold is the number of corrections attributed to the
// same chip after which the engine switches to pre-emptive correction
// for that chip (paper §IV-A, "Mitigating Correction Latency under
// Permanent Chip Failures").
const DefaultFaultThreshold = 4

// ErrAttack is returned when a MAC mismatch cannot be resolved by the
// reconstruction engine: either more than one chip is in error or the
// contents were maliciously modified. Synergy cannot distinguish the
// two and, as the paper requires, fails closed (§III-B).
var ErrAttack = errors.New("core: detected uncorrectable error or tampering — attack declared")

// ErrPoisoned is returned by reads of a line that previously hit an
// uncorrectable error and has not been repaired since. Poisoned lines
// fail fast — no MAC walk, no reconstruction storm — until either a
// successful Write re-seals the line or RepairChip rebuilds the failed
// chip (§IV-A degraded-mode operation).
var ErrPoisoned = errors.New("core: line is poisoned (unrepaired uncorrectable error)")

// ErrOutOfRange is returned (wrapped, with the offending address) when a
// line index falls outside the configured capacity.
var ErrOutOfRange = errors.New("core: line address out of range")

// ErrBadLineSize is returned (wrapped) when a caller-supplied buffer is
// not exactly LineSize bytes per line.
var ErrBadLineSize = errors.New("core: buffer must be exactly one cacheline per line")

// Config parameterizes a Synergy memory.
type Config struct {
	// DataLines is the number of 64-byte program-data cachelines.
	DataLines uint64
	// Ranks is the number of independent 9-chip ranks an Array splits
	// the capacity across (Table III: 4). 0 means 1.
	Ranks int
	// EncKey and MACKey are the 16-byte secret keys; zero-filled
	// defaults are derived if nil (useful for tests and examples).
	EncKey []byte
	MACKey []byte
	// FaultThreshold overrides DefaultFaultThreshold when > 0.
	FaultThreshold int
	// ErrorLogCapacity bounds the §IV-B corrected-error ring log
	// (default 1024 events).
	ErrorLogCapacity int
	// SplitCounters selects the split-counter organization (Yan et
	// al., paper §VI-F): one counter line covers 48 data lines (shared
	// major + per-line minors), shrinking counter storage and working
	// set 6x at the cost of group re-encryption on minor overflow.
	SplitCounters bool
	// MetadataCache sizes the on-chip trusted metadata cache at which
	// the Fig. 7 upward walk stops, in entries (clamped up to hold at
	// least two full integrity paths). When positive, the cache is
	// write-back: hot-line writes bump counters in the cached copies and
	// defer MAC sealing and the module writebacks to eviction or Flush,
	// so stored metadata is stale between writes and Flush — call Flush
	// (or Sync on the facade) before treating device contents as
	// externally consistent. 0 or negative gives DefaultMetadataCache
	// entries and has every write seal and store its own path before it
	// returns, so stored device state is consistent after every write.
	MetadataCache int
	// Telemetry, when non-nil, receives operation error counts, sampled
	// latency histograms and engine events, and reads each rank's
	// counts when a snapshot is taken (see internal/telemetry). Nil
	// disables instrumentation down to a few compares per operation.
	// Events and counts carry the index of the rank they happened on.
	// The registry references every array built on it for the
	// registry's lifetime.
	Telemetry *telemetry.Registry
}

// Memory is one rank of an Array: a functional Synergy secure memory on
// one 9-chip ECC-DIMM. Reads and writes go through the Array that owns
// it; Array.Rank hands out the rank itself only as a fault-injection and
// inspection handle (Inject*, ClearFault, FlushNodeCache, ErrorLog,
// KnownBadChip, IsPoisoned, Stats, Module, Layout).
//
// A rank is safe for concurrent use: a rank-level RWMutex serializes
// the command stream the way a per-rank memory controller queue would.
// The steady-state read — cache-hit counter, passing MAC, and either a
// healthy rank or a condemned chip whose §IV-A rebuild matches the
// stored cells — runs entirely under the shared lock (see fastread.go).
// Everything that mutates engine state — writes, cache fills, ECC
// correction, scoreboard updates, a pre-emptive fix that must be
// written back, poison bookkeeping — escalates to the exclusive lock;
// pure observers (Stats, KnownBadChip) share the read lock. Rank-level
// parallelism comes from Array, which routes disjoint ranks to disjoint
// locks. Module and Layout expose raw hardware and are
// caller-synchronized: do not inject faults through them while another
// goroutine is mid-access (the Inject* methods take the rank lock).
type Memory struct {
	mu     sync.RWMutex
	layout Layout
	geo    *integrity.Geometry
	mod    *dimm.Module
	mac    *gmac.Mac
	enc    *ctrenc.Engine
	root   uint64 // on-chip root counter (trusted)

	split          bool
	syncWrites     bool // Config.MetadataCache ≤ 0: each write flushes its own path
	faultThreshold int
	scoreboard     [dimm.Chips]uint64
	knownBad       int // chip index, or -1

	// poisoned holds data-line indices that hit an uncorrectable error
	// and have not been re-sealed (by a Write) or repaired (by
	// RepairChip) since. Reads of these lines fail fast with
	// ErrPoisoned instead of re-running the 16-attempt reconstruction.
	poisoned map[uint64]struct{}

	ncache *nodeCache
	log    *ErrorLog
	stats  Stats

	// tel receives op error counts, sampled stage timings and sink
	// events, and reads this rank's counts at scrape time (fillRank);
	// nil when telemetry is unconfigured. telTick and telWTick count
	// the reads and writes served under the exclusive lock and drive
	// the 1-in-N stage-sampling decision; st carries the active sampled
	// operation's stage timer. All three are plain fields because every
	// path that touches them holds mu exclusively.
	tel      *telemetry.Registry
	telRank  int
	telMask  uint64 // cached tel.SampleMask()
	telTick  uint64
	telWTick uint64
	st       telemetry.StageTimer

	tally tally // counts Stats has no field for; guarded by mu

	// Reusable scratch for the zero-allocation hot paths. All of it is
	// guarded by mu (exclusive): loadPath fills pathBuf, preemptPath
	// saves the path as loaded in pathSave, and writes stage
	// plaintext/ciphertext in lineBufs. Nothing here survives an
	// operation; pooling only avoids per-access garbage.
	pathBuf  []pathEntry
	pathSave []pathEntry
	flushBuf []*cachedNode
	lineBufs [2][LineSize]byte

	// Shared-lock optimistic read machinery (fastread.go). gens holds
	// the striped per-line seqlock-style generation slots: bumped by
	// mutators under the exclusive lock, loaded by optimistic readers
	// to classify a failed verify (writer interference vs genuine
	// corruption). The counters are atomics — the fast path never
	// holds the exclusive lock that guards m.stats — and Stats()
	// merges them into the returned copy.
	gens            [genStripes]atomic.Uint64
	fastReads       atomic.Uint64 // clean reads served under the shared lock
	preemptReads    atomic.Uint64 // §IV-A pre-emptive reads served under the shared lock
	fastPoisonFails atomic.Uint64 // poison fast-fails under the shared lock
	genRetries      atomic.Uint64 // attempts retried after a generation conflict
	escalations     [telemetry.NumEscReasons]atomic.Uint64
}

// Stats counts the engine's observable activity, in the units the
// paper's §IV-A analysis uses.
type Stats struct {
	Reads  uint64 // data-line reads served
	Writes uint64 // data-line writes served

	MACComputations        uint64 // total MAC evaluations (detection + correction)
	MismatchesSeen         uint64 // MAC mismatches observed before correction
	CorrectionEvents       uint64 // lines successfully corrected
	ReconstructionAttempts uint64 // candidate reconstructions tried, a data line's MAC-chip candidate included
	ParityPUses            uint64 // corrections that needed the parity-of-parities
	PreemptiveFixes        uint64 // reads served via the known-bad-chip fast path, under either lock
	AttacksDeclared        uint64 // uncorrectable events

	GroupReencryptions    uint64 // split-counter minor overflows handled
	GroupLinesReencrypted uint64 // data lines rewritten by those events

	NodeCacheStops uint64 // read walks that ended at an on-chip node

	MetaCacheHits   uint64 // path loads served from the on-chip metadata cache
	MetaCacheMisses uint64 // path loads that went to the module
	MetaWritebacks  uint64 // dirty metadata entries sealed and written back
	MetaFlushes     uint64 // explicit Flush calls completed

	LinesPoisoned   uint64 // uncorrectable events that poisoned a line
	PoisonFastFails uint64 // reads failed fast on an already-poisoned line
	LinesHealed     uint64 // poisoned lines cleared by a write or repair
	ChipRepairs     uint64 // RepairChip invocations completed

	FastReads       uint64 // clean reads served under the shared lock (subset of Reads; shared pre-emptive reads are PreemptiveFixes)
	ReadEscalations uint64 // optimistic attempts that fell back to the exclusive path
	GenRetries      uint64 // optimistic attempts retried after a generation conflict
}

// ReadInfo describes what happened during one Read.
type ReadInfo struct {
	// Corrected is true if any line on the access path was repaired.
	Corrected bool
	// CorrectedRegions lists the region of each repaired line.
	CorrectedRegions []Region
	// FaultyChips lists the chip index identified by each repair.
	FaultyChips []int
	// MACRecomputations counts MAC evaluations spent on correction for
	// this access (≤16 for a data line, ≤8 per counter/tree line). A
	// data line's MAC-chip candidate reuses the MAC over the as-read
	// line and is not counted, though Stats.ReconstructionAttempts
	// counts it.
	MACRecomputations int
	// UsedParityP is true if the parity-of-parities was needed.
	UsedParityP bool
	// Preemptive is true if the known-bad-chip fast path served the read.
	Preemptive bool
}

// newRank builds one rank over the given crypto engines (see NewArray)
// and initializes every region to a consistent encrypted, MACed,
// parity-protected state, as a trusted boot-time initialization would;
// rank labels its telemetry.
func newRank(cfg Config, enc *ctrenc.Engine, mac *gmac.Mac, rank int) (*Memory, error) {
	ctrsPerLine := uint64(integrity.CountersPerLine)
	if cfg.SplitCounters {
		ctrsPerLine = integrity.SplitCountersPerLine
	}
	counterLines := (cfg.DataLines + ctrsPerLine - 1) / ctrsPerLine
	geo, err := integrity.NewGeometry(counterLines)
	if err != nil {
		return nil, err
	}
	layout, err := NewLayout(cfg.DataLines, geo, ctrsPerLine)
	if err != nil {
		return nil, err
	}
	mod, err := dimm.New(layout.TotalLines)
	if err != nil {
		return nil, err
	}
	threshold := cfg.FaultThreshold
	if threshold <= 0 {
		threshold = DefaultFaultThreshold
	}
	m := &Memory{
		layout:         layout,
		geo:            geo,
		mod:            mod,
		mac:            mac,
		enc:            enc,
		split:          cfg.SplitCounters,
		faultThreshold: threshold,
		knownBad:       -1,
		poisoned:       make(map[uint64]struct{}),
		log:            newErrorLog(cfg.ErrorLogCapacity),
		tel:            cfg.Telemetry,
		telRank:        rank,
		telMask:        cfg.Telemetry.SampleMask(),
	}
	capacity := cfg.MetadataCache
	if capacity <= 0 {
		m.syncWrites = true
		capacity = DefaultMetadataCache
	}
	// The cache must at least hold the full path of the line being
	// written plus an ancestor climb during a flush, or every write
	// would thrash its own path.
	m.ncache = newNodeCache(max(capacity, 2*(geo.Levels()+1)), layout.counterBase, layout.TotalLines)
	if err := m.initialize(); err != nil {
		return nil, err
	}
	m.tel.RegisterRank(rank, m.fillRank)
	return m, nil
}

// initialize writes consistent zero state everywhere: tree and counter
// nodes sealed top-down, data lines encrypted with counter 0, parity
// lines consistent.
func (m *Memory) initialize() error {
	// Tree levels, then the encryption-counter lines (level -1): top-down
	// so parents exist before children are sealed.
	for level := m.geo.Levels() - 1; level >= -1; level-- {
		n, addr := m.layout.CounterLines, m.layout.counterBase
		if level >= 0 {
			n, addr = m.layout.TreeLines[level], m.layout.TreeBase[level]
		}
		for idx := uint64(0); idx < n; idx++ {
			e := pathEntry{level: level, index: idx, addr: addr + idx}
			m.entrySeal(&e, m.parentCounterForInit(level, idx))
			if err := m.writeEntry(&e); err != nil {
				return err
			}
		}
	}
	// Data lines: ciphertext of zeros under counter 0, with MAC.
	var zero, cipher [LineSize]byte
	var tag [gmac.TagSize]byte
	for i := uint64(0); i < m.layout.DataLines; i++ {
		addr := m.layout.DataAddr(i)
		if err := m.enc.Encrypt(cipher[:], zero[:], addr, 0); err != nil {
			return err
		}
		binary.BigEndian.PutUint64(tag[:], m.mac.SumLine(addr, 0, &cipher))
		m.stats.MACComputations++
		if err := m.mod.WriteLine(addr, cipher[:], tag[:]); err != nil {
			return err
		}
	}
	// Parity lines, computed from the just-written data lines.
	return m.rebuildParity()
}

// parentCounterForInit returns the (all-zero at init) parent counter for
// a node; kept as a method so initialization and runtime agree on the
// chain structure.
func (m *Memory) parentCounterForInit(level int, index uint64) uint64 {
	_, _, _, ok := m.geo.Parent(level, index)
	if !ok {
		return m.root // root counter, zero at init
	}
	return 0
}

// rebuildParity recomputes every parity line — all 8 slots and ParityP —
// from the stored data-line cells (PeekLine: the fault model is not
// applied, so a live fault on another chip cannot leak into parity).
// Slots past DataLines in a partial last parity line hold zero.
func (m *Memory) rebuildParity() error {
	for p := uint64(0); p < m.layout.ParityLines; p++ {
		var line [LineSize]byte
		for slot := uint64(0); slot < 8 && p*8+slot < m.layout.DataLines; slot++ {
			dl, ok := m.mod.PeekLine(m.layout.DataAddr(p*8 + slot))
			if !ok {
				return fmt.Errorf("core: data line %d: %w", p*8+slot, ErrOutOfRange)
			}
			putWord(line[slot*8:], parity9(&dl))
		}
		parityP := integrity.SliceParity(&line)
		if err := m.mod.WriteLine(m.layout.parityBase+p, line[:], parityP[:]); err != nil {
			return err
		}
	}
	return nil
}

// parity9 computes the Synergy parity across all 9 chips of a data line:
// C0 ⊕ C1 ⊕ … ⊕ C7 ⊕ MAC (paper §III, Fig. 5), as a word.
func parity9(l *dimm.Line) uint64 {
	return sliceSum(&l.Data) ^ word(l.ECC[:])
}

// Module exposes the underlying DIMM for fault injection in tests,
// examples, and the reliability harness. The module itself is not
// synchronized: callers must not inject faults concurrently with
// Read/Write/Scrub on the same rank.
func (m *Memory) Module() *dimm.Module { return m.mod }

// Layout exposes the region map (for targeted fault injection). The
// layout is immutable after NewArray.
func (m *Memory) Layout() Layout { return m.layout }

// Stats returns a copy of the engine counters. Shared-lock activity is
// tracked in atomics (the shared-lock read never touches m.stats) and
// folded in here: each read served shared, clean or pre-emptive, is one
// served read whose walk stopped at an on-chip cached node, with
// exactly one MAC evaluation.
func (m *Memory) Stats() Stats {
	m.mu.RLock()
	s := m.stats
	m.mu.RUnlock()
	m.addShared(&s)
	return s
}

// addShared folds the shared-lock path's atomics into s, a copy of
// m.stats.
func (m *Memory) addShared(s *Stats) {
	fast, pre := m.fastReads.Load(), m.preemptReads.Load()
	s.FastReads = fast
	s.PreemptiveFixes += pre
	s.Reads += fast + pre
	s.NodeCacheStops += fast + pre
	s.MetaCacheHits += fast + pre
	s.PoisonFastFails += m.fastPoisonFails.Load()
	s.GenRetries = m.genRetries.Load()
	for k := range m.escalations {
		s.ReadEscalations += m.escalations[k].Load()
	}
	// A fast attempt spends one MAC on its verify and then ends in
	// exactly one of: served (clean or pre-emptive), a generation retry,
	// or a mismatch or degraded escalation. (Its Decrypt cannot fail;
	// see fastRead.)
	s.MACComputations += fast + pre + s.GenRetries +
		m.escalations[telemetry.EscMismatch].Load() + m.escalations[telemetry.EscDegraded].Load()
}

// KnownBadChip returns the chip the scoreboard has condemned, or -1.
func (m *Memory) KnownBadChip() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.knownBad
}

// ErrorLog exposes the §IV-B corrected-error log for the platform's
// security apparatus (see ErrorLog.Analyze). The log is internally
// synchronized and safe to analyze while the engine serves traffic.
func (m *Memory) ErrorLog() *ErrorLog { return m.log }

// FlushNodeCache empties the on-chip trusted metadata cache (as a
// context switch or enclave exit would), forcing subsequent walks back
// to memory. Every dirty entry is sealed and written back first —
// dropping dirty state would lose committed counter advances — so the
// error return must be checked.
func (m *Memory) FlushNodeCache() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.flushMetadata(); err != nil {
		return err
	}
	m.ncache.reset()
	return nil
}

// flushMetadata seals all dirty cache entries under m.mu. Address order
// makes the module write sequence deterministic; correctness does not
// depend on it (parent counters are bumped eagerly, so every dirty
// entry seals under its parent's final counter regardless of order).
func (m *Memory) flushMetadata() error {
	dirty := m.ncache.appendDirty(m.flushBuf[:0])
	slices.SortFunc(dirty, func(a, b *cachedNode) int { return cmp.Compare(a.addr, b.addr) })
	var err error
	for _, cn := range dirty {
		if err = m.flushEntry(cn); err != nil {
			break
		}
	}
	// Keep the scratch's capacity, not its pointers: callers go on to
	// drop the cache these entries belong to.
	clear(dirty)
	m.flushBuf = dirty[:0]
	if err == nil {
		m.stats.MetaFlushes++
	}
	return err
}

// flushEntry seals one dirty entry under its parent's current counter
// and writes it back to the module, leaving it cached clean. The fresh
// MAC is carried back into the cached copy so a later eviction needs no
// reseal.
func (m *Memory) flushEntry(cn *cachedNode) error {
	parentCtr, err := m.trustedParentCounter(cn.level, cn.index)
	if err != nil {
		return err
	}
	var e pathEntry
	e.level, e.index, e.addr = cn.level, cn.index, cn.addr
	e.node, e.split = cn.node, cn.split
	m.entrySeal(&e, parentCtr)
	m.stats.MACComputations++
	if err := m.writeEntry(&e); err != nil {
		return err
	}
	cn.node, cn.split = e.node, e.split
	m.ncache.markClean(cn)
	m.stats.MetaWritebacks++
	return nil
}

// trustedParentCounter returns the current counter authenticating node
// (level, index): the root for the top node, otherwise the child's slot
// counter in a trusted copy of the parent.
func (m *Memory) trustedParentCounter(level int, index uint64) (uint64, error) {
	pl, pi, slot, ok := m.geo.Parent(level, index)
	if !ok {
		return m.root, nil
	}
	pn, err := m.trustedNode(pl, pi)
	if err != nil {
		return 0, err
	}
	return pn.node.Counters[slot], nil
}

// trustedNode returns a trusted copy of tree node (level, index): the
// cached entry when present (dirty or clean — both are inside the
// trust boundary and carry current counters), otherwise the stored
// line, verified under its own trusted parent counter (climbing
// ancestors as far as the first cached one), corrected through the
// reconstruction engine on mismatch, and cached clean. Only the flush
// path needs this climb: a dirty entry's parent can itself have been
// flushed and evicted, leaving its current counters only in memory.
func (m *Memory) trustedNode(level int, index uint64) (*cachedNode, error) {
	addr := m.layout.TreeAddr(level, index)
	if cn, ok := m.ncache.get(addr); ok {
		return cn, nil
	}
	parentCtr, err := m.trustedParentCounter(level, index)
	if err != nil {
		return nil, err
	}
	var e pathEntry
	e.level, e.index, e.addr = level, index, addr
	raw, err := m.mod.ReadLine(addr)
	if err != nil {
		return nil, err
	}
	e.raw = raw
	m.entryUnpack(&e)
	m.stats.MACComputations++
	if !m.entryVerify(&e, parentCtr) {
		m.stats.MismatchesSeen++
		chip, _, rerr := m.reconstructEntry(&e, parentCtr)
		if rerr != nil {
			m.stats.AttacksDeclared++
			return nil, fmt.Errorf("core: metadata flush (tree line %#x): %w", addr, rerr)
		}
		if err := m.writeEntry(&e); err != nil {
			return nil, err
		}
		var info ReadInfo
		m.noteCorrection(chip, RegionTree, addr, false, &info)
	}
	return m.ncache.insert(addr, level, index, e.node, e.split), nil
}

// trimCache evicts down to capacity: clean victims drop, dirty victims
// flush first. Runs after each operation's cache fills (never in the
// middle of one), so an in-flight path is always fully resident.
func (m *Memory) trimCache() error {
	for m.ncache.over() > 0 {
		v, ok := m.ncache.victim()
		if !ok {
			return nil
		}
		if v.dirty {
			if err := m.flushEntry(v); err != nil {
				return err
			}
		}
		m.ncache.remove(v)
	}
	return nil
}

// pathEntry is one level of the integrity path for a data line, leaf
// (encryption counter) first. Tree levels always hold a monolithic
// Node; under split counters the leaf holds a SplitNode instead.
type pathEntry struct {
	level int // -1 for the encryption-counter line
	index uint64
	addr  uint64
	slot  int // slot within the parent holding this node's counter
	node  integrity.Node
	split integrity.SplitNode // leaf only, when split counters are on
	raw   dimm.Line
	// cached is the on-chip node cache entry this level was served
	// from, nil when it came from memory. A cached entry was verified
	// when it was cached and lives inside the trust boundary, so the
	// walk stops here (Fig. 7b) and no verification is needed. Its
	// counters are read through the handle (leafCounter,
	// parentCounterOf) — node, split and raw stay zero — and the handle
	// is only valid inside the exclusive-lock section that loaded the
	// path, up to that section's trimCache.
	cached *cachedNode
}

// isSplitLeaf reports whether entry e carries a split-counter leaf.
func (m *Memory) isSplitLeaf(e *pathEntry) bool {
	return m.split && e.level == -1
}

// entryUnpack refreshes e's decoded view from e.raw.
func (m *Memory) entryUnpack(e *pathEntry) {
	if m.isSplitLeaf(e) {
		e.split.Unpack(&e.raw.Data)
		return
	}
	e.node.Unpack(&e.raw.Data)
}

// entryVerify checks e's MAC under the trusted parent counter.
func (m *Memory) entryVerify(e *pathEntry, parentCtr uint64) bool {
	if m.isSplitLeaf(e) {
		return e.split.Verify(m.mac, e.addr, parentCtr)
	}
	return e.node.Verify(m.mac, e.addr, parentCtr)
}

// entrySeal recomputes e's MAC under the parent counter.
func (m *Memory) entrySeal(e *pathEntry, parentCtr uint64) {
	if m.isSplitLeaf(e) {
		e.split.Seal(m.mac, e.addr, parentCtr)
		return
	}
	e.node.Seal(m.mac, e.addr, parentCtr)
}

// writeEntry packs e and stores it with its intra-line parity in the ECC
// chip (ParityC / ParityT).
func (m *Memory) writeEntry(e *pathEntry) error {
	var buf [integrity.NodeSize]byte
	if m.isSplitLeaf(e) {
		e.split.Pack(&buf)
	} else {
		e.node.Pack(&buf)
	}
	copy(e.raw.Data[:], buf[:])
	par := integrity.SliceParity(&buf)
	copy(e.raw.ECC[:], par[:])
	return m.mod.WriteLine(e.addr, buf[:], par[:])
}

// leafCounter returns the effective encryption counter for slot s of
// the leaf entry.
func (m *Memory) leafCounter(e *pathEntry, slot int) uint64 {
	node, split := &e.node, &e.split
	if e.cached != nil {
		node, split = &e.cached.node, &e.cached.split
	}
	if m.isSplitLeaf(e) {
		return split.Counter(slot)
	}
	return node.Counters[slot]
}

// loadPath reads the integrity path for data line i, leaf first,
// probing the on-chip trusted node cache at each level. A read
// (stopAtCache) ends at the first cached entry (Fig. 7b); a write
// probes every level up to the root, since it bumps a counter in each.
// Cached levels are trusted as-is; memory-sourced levels are read raw
// for the caller to verify.
func (m *Memory) loadPath(i uint64, stopAtCache bool) (entries []pathEntry, err error) {
	addr, _ := m.layout.CounterAddr(i)
	// The path scratch is reused across accesses (mu is held exclusively
	// on every path that gets here); keep whatever capacity it grew to.
	entries = m.pathBuf[:0]
	defer func() { m.pathBuf = entries }()
	level, index := -1, addr-m.layout.counterBase
	for {
		// Build each level in its slot: a pathEntry is ~250 bytes, too
		// large to fill in a local and copy in on every probe.
		entries = append(entries, pathEntry{})
		e := &entries[len(entries)-1]
		e.level, e.index = level, index
		if level == -1 {
			e.addr = m.layout.counterBase + index
		} else {
			e.addr = m.layout.TreeAddr(level, index)
		}
		pl, pi, slot, ok := m.geo.Parent(level, index)
		e.slot = slot
		if cn, hit := m.ncache.get(e.addr); hit {
			e.cached = cn
			m.stats.MetaCacheHits++
			if stopAtCache {
				m.stats.NodeCacheStops++
				return entries, nil
			}
		} else {
			m.stats.MetaCacheMisses++
			raw, rerr := m.mod.ReadLine(e.addr)
			if rerr != nil {
				return nil, rerr
			}
			e.raw = raw
			m.entryUnpack(e)
		}
		if !ok {
			return entries, nil
		}
		level, index = pl, pi
	}
}

// cachePath inserts the memory-sourced levels of a fully trusted path
// into the on-chip node cache (a level served from the cache already
// holds these values) and points each level at its entry. The caller
// trims afterwards.
func (m *Memory) cachePath(path []pathEntry) {
	for k := range path {
		if path[k].cached == nil {
			path[k].cached = m.ncache.insert(path[k].addr, path[k].level, path[k].index, path[k].node, path[k].split)
		}
	}
}

// parentCounterOf returns the trusted counter authenticating path entry
// k, assuming entries above k are already verified/corrected.
func parentCounterOf(path []pathEntry, k int, root uint64) uint64 {
	if k == len(path)-1 {
		return root
	}
	if cn := path[k+1].cached; cn != nil {
		return cn.node.Counters[path[k].slot]
	}
	return path[k+1].node.Counters[path[k].slot]
}

// readTraced decrypts rank-local data line i into dst (64 bytes),
// performing the full integrity-tree traversal with Synergy's integrated
// error detection and correction (paper §III-B, Fig. 7). On an
// uncorrectable mismatch it returns ErrAttack and leaves dst
// unspecified.
//
// The steady-state read, clean or pre-emptive, is served under the
// shared lock alone (fastread.go); only cache misses, corrections,
// pre-emptive fixes that need writing back and generation conflicts
// take the exclusive lock. The pipeline's stage boundaries and any
// escalation-ladder rungs are recorded into sp as events; every span use
// is nil-safe.
func (m *Memory) readTraced(i uint64, dst []byte, sp *telemetry.Span) (ReadInfo, error) {
	if info, err, ok := m.fastRead(i, dst, sp); ok {
		return info, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.telTick++
	m.startStages(m.telTick, sp)
	info, err := m.readLocked(i, dst)
	if IsFailClosed(err) {
		m.tally.failClosed++
	}
	m.finishStages(telemetry.OpRead, err)
	return info, err
}

// readLocked is readTraced's exclusive path, with m.mu held. The read path mutates engine
// state — node-cache fills, scoreboard/stats updates, and correction
// commits write repaired lines back to the module — so it requires the
// exclusive lock, not the read lock.
func (m *Memory) readLocked(i uint64, dst []byte) (ReadInfo, error) {
	if len(dst) != LineSize {
		return ReadInfo{}, fmt.Errorf("core: Read needs a %d-byte buffer, got %d: %w", LineSize, len(dst), ErrBadLineSize)
	}
	if i >= m.layout.DataLines {
		return ReadInfo{}, fmt.Errorf("core: data line %d out of range [0,%d): %w", i, m.layout.DataLines, ErrOutOfRange)
	}
	// Fail fast on a poisoned line: the uncorrectable condition was
	// already diagnosed, so re-running the up-to-16-attempt
	// reconstruction on every access would only burn MAC bandwidth
	// (the §IV-B DoS surface). Write or RepairChip clears the state.
	if _, bad := m.poisoned[i]; bad {
		m.stats.PoisonFastFails++
		return ReadInfo{}, fmt.Errorf("core: data line %d: %w", i, ErrPoisoned)
	}
	m.stats.Reads++
	var info ReadInfo

	dataAddr := m.layout.DataAddr(i)
	dl, err := m.mod.ReadLine(dataAddr)
	if err != nil {
		return info, err
	}
	path, err := m.loadPath(i, true)
	if err != nil {
		return info, err
	}
	m.st.Mark(telemetry.StageCounterFetch)

	// Pre-emptive correction fast path for a condemned chip (§IV-A):
	// rebuild that chip's slice everywhere from parity before the MAC
	// check, so a permanent failure costs only the one MAC computation
	// the baseline needs anyway. The fix is applied to copies and
	// committed only if the whole path then verifies — if the mismatch
	// has a different cause, we fall back to full reconstruction on the
	// unmodified lines. A verified path is cached like a walked one, so
	// the next read under its counter leaf is served shared.
	if m.knownBad >= 0 {
		if ctr, ok, err := m.tryPreemptive(i, &dl, path); err != nil {
			return info, err
		} else if ok {
			info.Preemptive = true
			m.stats.PreemptiveFixes++
			m.st.Mark(telemetry.StageReconstruct)
			m.cachePath(path)
			if err := m.trimCache(); err != nil {
				return info, err
			}
			if err := m.enc.Decrypt(dst, dl.Data[:], dataAddr, ctr); err != nil {
				return info, err
			}
			m.st.Mark(telemetry.StageOTP)
			return info, nil
		}
	}

	// Upward traversal: verify leaf-to-root, logging mismatches rather
	// than declaring an attack immediately (Fig. 7b).
	anyMismatch := false
	for k := 0; k < len(path); k++ {
		if path[k].cached != nil {
			continue // on-chip entry: the walk stopped here
		}
		parentCtr := parentCounterOf(path, k, m.root)
		m.stats.MACComputations++
		if !m.entryVerify(&path[k], parentCtr) {
			anyMismatch = true
			m.stats.MismatchesSeen++
		}
	}
	m.st.Mark(telemetry.StageTreeWalk)
	_, ctrSlot := m.layout.CounterAddr(i)
	ctr := m.leafCounter(&path[0], ctrSlot)
	m.stats.MACComputations++
	dataOK := m.verifyData(dataAddr, ctr, &dl)
	if !dataOK {
		m.stats.MismatchesSeen++
	}
	m.st.Mark(telemetry.StageMACVerify)

	// Downward traversal: correct from the level nearest the trusted
	// root toward the data (Fig. 7c). At each level the parent is
	// already trusted, so a mismatch can only mean an error in the
	// line itself.
	if anyMismatch || !dataOK {
		for k := len(path) - 1; k >= 0; k-- {
			if path[k].cached != nil {
				continue
			}
			parentCtr := parentCounterOf(path, k, m.root)
			// Re-verify with the (possibly corrected) parent: an
			// upward mismatch may have been the parent's fault, and
			// conversely a corrected parent can expose a stale child.
			m.stats.MACComputations++
			if m.entryVerify(&path[k], parentCtr) {
				continue
			}
			chip, att, err := m.reconstructEntry(&path[k], parentCtr)
			info.MACRecomputations += att
			if err != nil {
				m.stats.AttacksDeclared++
				m.poisonLine(i)
				return info, fmt.Errorf("core: data line %d (path %s line %#x): %w",
					i, regionOfLevel(path[k].level), path[k].addr, err)
			}
			if err := m.writeEntry(&path[k]); err != nil {
				return info, err
			}
			m.noteCorrection(chip, regionOfLevel(path[k].level), path[k].addr, false, &info)
		}
		// Path is now trusted; re-derive the counter and check data.
		ctr = m.leafCounter(&path[0], ctrSlot)
		m.stats.MACComputations++
		if !m.verifyData(dataAddr, ctr, &dl) {
			fixed, chip, att, usedPP, err := m.reconstructData(i, ctr, &dl)
			info.MACRecomputations += att
			info.UsedParityP = info.UsedParityP || usedPP
			if err != nil {
				m.stats.AttacksDeclared++
				m.poisonLine(i)
				return info, fmt.Errorf("core: data line %d: %w", i, err)
			}
			dl = fixed
			if err := m.mod.WriteLine(dataAddr, dl.Data[:], dl.ECC[:]); err != nil {
				return info, err
			}
			m.noteCorrection(chip, RegionData, dataAddr, usedPP, &info)
		}
		m.st.Mark(telemetry.StageReconstruct)
	}

	// The whole path is now verified (or was served from on-chip):
	// cache it so subsequent walks stop early.
	m.cachePath(path)
	if err := m.trimCache(); err != nil {
		return info, err
	}

	if err := m.enc.Decrypt(dst, dl.Data[:], dataAddr, ctr); err != nil {
		return info, err
	}
	m.st.Mark(telemetry.StageOTP)
	return info, nil
}

// verifyData checks the data-line MAC (stored in the ECC chip) against a
// MAC computed over the ciphertext with the line's encryption counter.
func (m *Memory) verifyData(addr, ctr uint64, l *dimm.Line) bool {
	return m.mac.SumLine(addr, ctr, &l.Data) == binary.BigEndian.Uint64(l.ECC[:])
}

func regionOfLevel(level int) Region {
	if level == -1 {
		return RegionCounter
	}
	return RegionTree
}

func (m *Memory) noteCorrection(chip int, r Region, addr uint64, usedPP bool, info *ReadInfo) {
	// A correction rewrote a stored line whose blast radius can span
	// every data line under the repaired path node; bump every
	// generation slot so concurrent optimistic readers whose verify
	// straddled the repair retry instead of escalating. Corrections
	// are rare — the sweep is off the hot path by definition.
	m.bumpAllGens()
	info.Corrected = true
	info.CorrectedRegions = append(info.CorrectedRegions, r)
	info.FaultyChips = append(info.FaultyChips, chip)
	m.stats.CorrectionEvents++
	m.log.add(ErrorEvent{
		Seq:         m.stats.Reads + m.stats.Writes,
		Region:      r,
		Chip:        chip,
		Line:        addr,
		UsedParityP: usedPP,
	})
	if chip >= 0 && chip < dimm.Chips {
		m.scoreboard[chip]++
		if m.scoreboard[chip] >= uint64(m.faultThreshold) {
			m.knownBad = chip
		}
	}
	m.tel.EmitCorrection(telemetry.CorrectionEvent{
		Rank:        m.telRank,
		Chip:        chip,
		Region:      r.String(),
		Line:        addr,
		UsedParityP: usedPP,
	})
}

// writeTraced encrypts and stores 64 bytes at rank-local data line i,
// incrementing the encryption counter and every tree counter on the
// path, resealing the path MACs, and updating the Synergy parity
// (§III-A). The write path's stage boundaries (counter fetch, meta
// update, OTP) become events on sp, which may be nil.
func (m *Memory) writeTraced(i uint64, plain []byte, sp *telemetry.Span) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.telWTick++
	m.startStages(m.telWTick, sp)
	err := m.writeLocked(i, plain)
	m.finishStages(telemetry.OpWrite, err)
	return err
}

// writeLocked is writeTraced with m.mu held — the one write pipeline. The
// path is pinned in the metadata cache and every level's counter
// advances in the cached copy: the leaf, each ancestor's slot and the
// on-chip root, so any stale stored copy fails its MAC against the
// advanced parent counter. Sealing and the per-level module stores are
// deferred to eviction or Flush when Config.MetadataCache is positive;
// otherwise (syncWrites) the write seals and stores its own path before
// returning.
func (m *Memory) writeLocked(i uint64, plain []byte) error {
	if len(plain) != LineSize {
		return fmt.Errorf("core: Write needs a %d-byte buffer, got %d: %w", LineSize, len(plain), ErrBadLineSize)
	}
	if i >= m.layout.DataLines {
		return fmt.Errorf("core: data line %d out of range [0,%d): %w", i, m.layout.DataLines, ErrOutOfRange)
	}
	m.stats.Writes++
	path, err := m.loadPath(i, false)
	if err != nil {
		return fmt.Errorf("core: data line %d: %w", i, err)
	}
	// Make the levels that came from memory trusted. Under a condemned
	// chip the §IV-A candidate goes first, as on reads: its slice rebuilt
	// on every such level, applied silently if they all verify.
	// Otherwise verify and correct level by level, top-down: each entry's
	// parent is trusted by the time it is checked (cached, or verified by
	// the previous iteration). Dirty cached ancestors are fine — their
	// counters are current by construction, and the stale stored copies
	// below them are never read (the cache probe wins). An uncorrectable
	// path poisons the line: its counter chain cannot be advanced, so
	// reads would keep failing anyway — record that once.
	preempted := false
	if m.knownBad >= 0 {
		_, preempted = m.preemptPath(path)
	}
	if !preempted {
		for k := len(path) - 1; k >= 0; k-- {
			if path[k].cached != nil {
				continue
			}
			parentCtr := parentCounterOf(path, k, m.root)
			m.stats.MACComputations++
			if m.entryVerify(&path[k], parentCtr) {
				continue
			}
			m.stats.MismatchesSeen++
			chip, _, rerr := m.reconstructEntry(&path[k], parentCtr)
			if rerr != nil {
				m.stats.AttacksDeclared++
				m.poisonLine(i)
				return fmt.Errorf("core: data line %d (path %s line %#x): %w",
					i, regionOfLevel(path[k].level), path[k].addr, rerr)
			}
			if err := m.writeEntry(&path[k]); err != nil {
				return err
			}
			var info ReadInfo
			m.noteCorrection(chip, regionOfLevel(path[k].level), path[k].addr, false, &info)
		}
	}
	m.st.Mark(telemetry.StageCounterFetch)

	// Pin the whole path in the cache and bump counters in the cached
	// copies.
	m.cachePath(path)
	_, ctrSlot := m.layout.CounterAddr(i)
	leaf := path[0].cached
	var newCtr uint64
	var reencrypt bool
	oldLeaf := leaf.split // pre-bump counters, for group re-encryption
	if m.split {
		newCtr, reencrypt, err = leaf.split.Bump(ctrSlot)
		if err != nil {
			return err
		}
	} else {
		newCtr, err = ctrenc.NextCounter(leaf.node.Counters[ctrSlot])
		if err != nil {
			return err
		}
		leaf.node.Counters[ctrSlot] = newCtr
	}
	m.ncache.markDirty(leaf)
	for k := 1; k < len(path); k++ {
		cn, slot := path[k].cached, path[k-1].slot
		cn.node.Counters[slot] = (cn.node.Counters[slot] + 1) & integrity.CounterMask
		m.ncache.markDirty(cn)
	}
	m.root = (m.root + 1) & integrity.CounterMask
	if m.syncWrites {
		// Every earlier write flushed its own path, so these entries are
		// the only dirty ones: no scan, no sort.
		for k := range path {
			if err := m.flushEntry(path[k].cached); err != nil {
				return err
			}
		}
	}
	m.st.Mark(telemetry.StageMetaUpdate)

	// A minor-counter overflow re-encrypts the whole 48-line group
	// under the incremented major (the split-counter design's overflow
	// cost, §VI-F).
	if reencrypt {
		if err := m.reencryptGroup(i, &oldLeaf, leaf.split.Major); err != nil {
			return err
		}
	}
	if err := m.storeDataLine(i, newCtr, plain); err != nil {
		return err
	}
	m.st.Mark(telemetry.StageOTP)
	return m.trimCache()
}

// storeDataLine encrypts, MACs and stores data line i under newCtr,
// refreshes its parity slot and heals any poison — the tail every
// write path shares.
func (m *Memory) storeDataLine(i, newCtr uint64, plain []byte) error {
	dataAddr := m.layout.DataAddr(i)
	cipher := &m.lineBufs[0]
	if err := m.enc.Encrypt(cipher[:], plain, dataAddr, newCtr); err != nil {
		return err
	}
	var tag [gmac.TagSize]byte
	binary.BigEndian.PutUint64(tag[:], m.mac.SumLine(dataAddr, newCtr, cipher))
	m.stats.MACComputations++
	if err := m.mod.WriteLine(dataAddr, cipher[:], tag[:]); err != nil {
		return err
	}

	// Update the parity line slot for this data line and ParityP.
	if err := m.updateParity(i, cipher[:], tag[:]); err != nil {
		return err
	}
	// A complete write re-seals the line — fresh ciphertext, MAC and
	// parity slot — so any poison from an earlier uncorrectable read is
	// healed (a lingering permanent multi-chip fault re-poisons on the
	// next read; that is the fault speaking, not stale state).
	m.healLine(i)
	m.bumpGen(i)
	return nil
}

// poisonLine marks data line i poisoned. Idempotent: repeated
// uncorrectable events on the same line count once until it heals.
func (m *Memory) poisonLine(i uint64) {
	if _, ok := m.poisoned[i]; ok {
		return
	}
	m.poisoned[i] = struct{}{}
	m.stats.LinesPoisoned++
	m.bumpGen(i)
	m.tel.EmitPoison(telemetry.PoisonEvent{Rank: m.telRank, Line: i})
}

// healLine clears poison on data line i, if any.
func (m *Memory) healLine(i uint64) {
	if _, ok := m.poisoned[i]; ok {
		delete(m.poisoned, i)
		m.stats.LinesHealed++
		m.bumpGen(i)
		m.tel.EmitPoison(telemetry.PoisonEvent{Rank: m.telRank, Line: i, Healed: true})
	}
}

// IsPoisoned reports whether data line i is currently poisoned.
func (m *Memory) IsPoisoned(i uint64) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.poisoned[i]
	return ok
}

// tryPreemptive applies the condemned chip's parity fix to the data line
// and path, verifies everything, and commits the fix only on full
// success; otherwise it leaves both as loaded. On success it returns the
// trusted encryption counter.
func (m *Memory) tryPreemptive(i uint64, dl *dimm.Line, path []pathEntry) (uint64, bool, error) {
	cand := *dl
	stale, err := m.preemptData(i, &cand)
	if err != nil {
		return 0, false, err
	}
	orig, ok := m.preemptPath(path)
	if !ok {
		return 0, false, nil
	}
	_, ctrSlot := m.layout.CounterAddr(i)
	ctr := m.leafCounter(&path[0], ctrSlot)
	m.stats.MACComputations++
	if !m.verifyData(m.layout.DataAddr(i), ctr, &cand) {
		copy(path, orig)
		return 0, false, nil
	}
	// Commit, scrubbing repaired lines back to memory so transient
	// damage does not linger in the stored cells. Only lines whose cells
	// differ from the fix are written: under a dead chip the as-read copy
	// always differs, but the cells already hold the fixed bytes.
	if stale {
		if err := m.mod.WriteLine(m.layout.DataAddr(i), cand.Data[:], cand.ECC[:]); err != nil {
			return 0, false, err
		}
	}
	for k := range path {
		if path[k].cached == nil && !m.mod.Holds(path[k].addr, &path[k].raw) {
			if err := m.writeEntry(&path[k]); err != nil {
				return 0, false, err
			}
		}
	}
	*dl = cand
	return ctr, true, nil
}

// preemptPath applies the §IV-A fix for a condemned chip to path: that
// chip's slice rebuilt from intra-line parity on every memory-sourced
// level, top-down. It keeps the fix only if every one of those levels
// then verifies, and returns the path as loaded (for callers that undo
// the fix); otherwise path is left as loaded.
// Requires knownBad ≥ 0.
func (m *Memory) preemptPath(path []pathEntry) (orig []pathEntry, ok bool) {
	orig, saved := path, false
	for k := len(path) - 1; k >= 0; k-- {
		if path[k].cached != nil {
			continue
		}
		if !saved {
			orig, saved = append(m.pathSave[:0], path...), true
			m.pathSave = orig
		}
		m.preemptNode(&path[k])
		m.stats.MACComputations++
		if !m.entryVerify(&path[k], parentCounterOf(path, k, m.root)) {
			copy(path, orig)
			return nil, false
		}
	}
	return orig, true
}

// reencryptGroup rewrites every other data line of the 48-line group
// containing target under the new major counter (minor 0), after a
// split-counter overflow. Old counters come from the pre-bump leaf;
// lines with outstanding errors are corrected through the normal
// reconstruction engine first.
func (m *Memory) reencryptGroup(target uint64, oldLeaf *integrity.SplitNode, newMajor uint64) error {
	m.stats.GroupReencryptions++
	group := (target / integrity.SplitCountersPerLine) * integrity.SplitCountersPerLine
	// lineBufs[0] is free here: writeLocked stages its own ciphertext
	// only after the re-encryption completes.
	plain, cipher := m.lineBufs[1][:], &m.lineBufs[0]
	for slot := 0; slot < integrity.SplitCountersPerLine; slot++ {
		j := group + uint64(slot)
		if j == target || j >= m.layout.DataLines {
			continue
		}
		addr := m.layout.DataAddr(j)
		dl, err := m.mod.ReadLine(addr)
		if err != nil {
			return err
		}
		oldCtr := oldLeaf.Counter(slot)
		m.stats.MACComputations++
		if !m.verifyData(addr, oldCtr, &dl) {
			fixed, chip, _, usedPP, rerr := m.reconstructData(j, oldCtr, &dl)
			if rerr != nil {
				m.stats.AttacksDeclared++
				m.poisonLine(j)
				return fmt.Errorf("core: group re-encryption, data line %d: %w", j, rerr)
			}
			dl = fixed
			var info ReadInfo
			m.noteCorrection(chip, RegionData, addr, usedPP, &info)
		}
		if err := m.enc.Decrypt(plain, dl.Data[:], addr, oldCtr); err != nil {
			return err
		}
		newCtr := newMajor << 8 // minor reset to 0
		if err := m.enc.Encrypt(cipher[:], plain, addr, newCtr); err != nil {
			return err
		}
		var tag [gmac.TagSize]byte
		binary.BigEndian.PutUint64(tag[:], m.mac.SumLine(addr, newCtr, cipher))
		m.stats.MACComputations++
		if err := m.mod.WriteLine(addr, cipher[:], tag[:]); err != nil {
			return err
		}
		if err := m.updateParity(j, cipher[:], tag[:]); err != nil {
			return err
		}
		m.bumpGen(j)
		m.stats.GroupLinesReencrypted++
	}
	return nil
}

// updateParity installs the parity slot for data line i and refreshes
// ParityP. The new slot value is computed from the ciphertext and tag
// the controller just wrote — never from a re-read of the data line, so
// an active chip fault cannot poison the stored parity. ParityP is
// maintained incrementally (newPP = oldPP XOR oldSlot XOR newSlot),
// which keeps it exact under a fault on any chip other than the one
// holding this slot. (A write landing exactly on a faulty, not-yet-
// identified parity slot degrades that line's ParityP by the fault
// mask; Synergy then fails closed on a later overlapping correction —
// the paper's §III-B "parity assumed non-erroneous" caveat.)
func (m *Memory) updateParity(i uint64, cipher, tag []byte) error {
	pAddr, slot := m.layout.ParityAddr(i)
	newSlot := sliceSum((*[LineSize]byte)(cipher)) ^ word(tag)

	pl, err := m.mod.ReadLine(pAddr)
	if err != nil {
		return err
	}
	s := pl.Data[slot*8 : slot*8+8]
	putWord(pl.ECC[:], word(pl.ECC[:])^word(s)^newSlot)
	putWord(s, newSlot)
	return m.mod.WriteLine(pAddr, pl.Data[:], pl.ECC[:])
}

// ScrubReport summarizes a scrub pass (or the prefix of one that a
// cancelled context cut short — Scanned says how far it got).
type ScrubReport struct {
	// Scanned counts data lines examined.
	Scanned uint64
	// Corrected counts lines that needed (and got) correction.
	Corrected int
	// Poisoned lists, in scan order, every line that was found
	// uncorrectable during this pass or was already poisoned when the
	// scrubber reached it. The pass does not stop at them — degraded
	// lines are reported, the rest of the module still gets patrolled.
	Poisoned []uint64
}

// merge folds o into r.
func (r *ScrubReport) merge(o ScrubReport) {
	r.Scanned += o.Scanned
	r.Corrected += o.Corrected
	r.Poisoned = append(r.Poisoned, o.Poisoned...)
}

// scrubCancelStride is how many lines a scrub scans between context
// checks: frequent enough for prompt cancellation, cheap enough to
// vanish in the MAC-walk cost.
const scrubCancelStride = 64

// scrubFrom reads (and thereby corrects) every rank-local data line
// from start to the end of the rank, returning the report and the next
// line to scan — DataLines when the pass completed, or the resume point
// when ctx was cancelled. It is the primitive Array.Scrub and
// background scrubbers use; the latter resume an interrupted pass
// instead of restarting it. Uncorrectable lines do not abort the pass:
// they are poisoned, reported in ScrubReport.Poisoned, and the scan
// continues — a degraded module still gets its healthy lines
// patrolled. The rank lock is taken per line, not for the whole pass,
// so concurrent clients interleave with a background scrub instead of
// stalling behind it. Cancelling ctx stops the pass promptly with the
// partial report and ctx.Err().
func (m *Memory) scrubFrom(ctx context.Context, start uint64) (ScrubReport, uint64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m.tel.CountOp(telemetry.OpScrub, m.telRank)
	t0 := time.Now()
	var rep ScrubReport
	var err error
	next := m.layout.DataLines
	buf := make([]byte, LineSize)
scan:
	for i := start; i < m.layout.DataLines; i++ {
		if (i-start)%scrubCancelStride == 0 {
			if err = ctx.Err(); err != nil {
				next = i
				break
			}
		}
		info, rerr := m.readTraced(i, buf, nil)
		switch {
		case rerr == nil:
			if info.Corrected {
				rep.Corrected++
			}
		case errors.Is(rerr, ErrPoisoned), errors.Is(rerr, ErrAttack):
			// The read already poisoned the line (or it was poisoned
			// before); log and continue — no early abort.
			rep.Poisoned = append(rep.Poisoned, i)
		default:
			next, err = i, rerr
			break scan
		}
		rep.Scanned++
	}
	m.tel.ObserveOp(telemetry.OpScrub, m.telRank, time.Since(t0))
	// A cancelled context is the caller pausing the patrol, not the
	// engine failing; only I/O-level failures count as errors.
	if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		m.tel.CountOpError(telemetry.OpScrub, m.telRank)
	}
	passed := next == m.layout.DataLines
	m.mu.Lock()
	m.tally.scrubSegments++
	m.tally.scrubScanned += rep.Scanned
	m.tally.scrubCorrected += uint64(rep.Corrected)
	if passed {
		m.tally.scrubPasses++
	}
	m.mu.Unlock()
	if passed {
		m.tel.EmitScrubPass(telemetry.ScrubEvent{
			Rank:      m.telRank,
			Scanned:   rep.Scanned,
			Corrected: rep.Corrected,
			Poisoned:  len(rep.Poisoned),
		})
	}
	return rep, next, err
}

// repairChip models replacing chip (or re-mapping around it). Every
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
func (m *Memory) repairChip(chip int) (err error) {
	m.tel.CountOp(telemetry.OpRepairChip, m.telRank)
	// Deferred first so it runs after the unlock below: the latency
	// covers the whole repair, and sinks see the event lock-free.
	defer func(start time.Time) {
		m.tel.ObserveOp(telemetry.OpRepairChip, m.telRank, time.Since(start))
		if err != nil {
			m.tel.CountOpError(telemetry.OpRepairChip, m.telRank)
		} else {
			m.tel.EmitRepair(telemetry.RepairEvent{Rank: m.telRank, Chip: chip})
		}
	}(time.Now())
	if chip < 0 || chip >= dimm.Chips {
		return fmt.Errorf("core: chip %d out of range [0,%d)", chip, dimm.Chips)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.mod.ClearChipFaults(chip); err != nil {
		return err
	}
	// Seal dirty cached metadata back to the (now fault-free) module
	// before dropping the cache: the sweep below verifies stored state,
	// and dropping dirty entries would discard committed counter
	// advances, leaving memory sealed under counters the root has moved
	// past — indistinguishable from replay.
	if err := m.flushMetadata(); err != nil {
		return fmt.Errorf("core: repair of chip %d: %w", chip, err)
	}
	// Condemn the chip for the sweep and drop cached node copies: they
	// predate the repair, and a cache-trusted path would skip the very
	// verification that rebuilds stored garbage.
	m.knownBad = chip
	m.ncache.reset()

	var buf [LineSize]byte
	for i := uint64(0); i < m.layout.DataLines; i++ {
		_, wasPoisoned := m.poisoned[i]
		delete(m.poisoned, i)
		_, err := m.readLocked(i, buf[:])
		switch {
		case err == nil:
			if wasPoisoned {
				m.stats.LinesHealed++
				m.tel.EmitPoison(telemetry.PoisonEvent{Rank: m.telRank, Line: i, Healed: true})
			}
		case errors.Is(err, ErrAttack):
			// Still uncorrectable: readLocked re-poisoned the line.
		default:
			return fmt.Errorf("core: repair of chip %d: %w", chip, err)
		}
	}

	// The sweep repaired parity slots only where a data correction
	// needed them; rebuild the whole parity region — including ParityP,
	// which no read re-derives — from scratch against the now-verified
	// stored data lines.
	if err := m.rebuildParity(); err != nil {
		return fmt.Errorf("core: repair of chip %d: %w", chip, err)
	}
	// Counter and tree lines carry their intra-line parity (ParityC /
	// ParityT) in the ECC chip. Reads verify node contents but never
	// the parity slice itself, so after an ECC-chip replacement it must
	// be re-derived; after a data-chip replacement this is a no-op for
	// every line the sweep already committed.
	for addr := m.layout.counterBase; addr < m.layout.parityBase; addr++ {
		if err := m.resealLineParity(addr); err != nil {
			return fmt.Errorf("core: repair of chip %d: %w", chip, err)
		}
	}
	for addr := m.layout.parityBase + m.layout.ParityLines; addr < m.layout.TotalLines; addr++ {
		if err := m.resealLineParity(addr); err != nil {
			return fmt.Errorf("core: repair of chip %d: %w", chip, err)
		}
	}

	m.scoreboard = [dimm.Chips]uint64{}
	m.knownBad = -1
	m.stats.ChipRepairs++
	return nil
}

// resealLineParity rewrites a counter/tree line's ECC slice as the XOR
// of its 8 data-chip slices (the ParityC / ParityT invariant).
func (m *Memory) resealLineParity(addr uint64) error {
	raw, ok := m.mod.PeekLine(addr)
	if !ok {
		return fmt.Errorf("core: line %#x: %w", addr, ErrOutOfRange)
	}
	par := integrity.SliceParity(&raw.Data)
	return m.mod.WriteLine(addr, raw.Data[:], par[:])
}

// InjectTransient flips stored bits of chip's slice at module line addr
// under the rank lock, so faults can be injected while other goroutines
// serve traffic (Module() itself is caller-synchronized). One-shot cell
// corruption: the next write to the line heals it.
func (m *Memory) InjectTransient(addr uint64, chip int, mask [dimm.SliceSize]byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mod.InjectTransient(addr, chip, mask)
}

// IsFailClosed reports whether err is one of the engine's fail-closed
// read outcomes — ErrAttack (uncorrectable corruption detected now) or
// ErrPoisoned (detected on an earlier access and not yet repaired).
// Both mean the engine refused to return data rather than risk serving
// wrong bytes.
func IsFailClosed(err error) bool {
	return errors.Is(err, ErrAttack) || errors.Is(err, ErrPoisoned)
}

// ChipFault pairs a chip index with a corruption mask, for multi-point
// injection via InjectTransients.
type ChipFault struct {
	Chip int
	Mask [dimm.SliceSize]byte
}

// InjectTransients applies several stored-cell corruptions to one line
// as a single atomic step with respect to concurrent traffic. Injecting
// a multi-chip (uncorrectable) corruption with separate InjectTransient
// calls races with background scrubbing: a scrub between the calls
// corrects the first fault, and the "uncorrectable" line ends up merely
// degraded. Faults are validated against the module before any is
// applied, so an error means nothing was injected.
func (m *Memory) InjectTransients(addr uint64, faults []ChipFault) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range faults {
		if f.Chip < 0 || f.Chip >= dimm.Chips {
			return fmt.Errorf("core: chip %d out of range [0,%d)", f.Chip, dimm.Chips)
		}
	}
	for _, f := range faults {
		if err := m.mod.InjectTransient(addr, f.Chip, f.Mask); err != nil {
			return err
		}
	}
	return nil
}

// InjectPermanent installs a read-path chip fault over [lo, hi] under
// the rank lock (see Module.InjectPermanent).
func (m *Memory) InjectPermanent(chip int, lo, hi uint64, mask [dimm.SliceSize]byte) (dimm.FaultID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mod.InjectPermanent(chip, lo, hi, mask)
}

// ClearFault disables a previously injected permanent fault under the
// rank lock. Unlike Array.RepairChip it does not rebuild stored state or
// reset the scoreboard — it models the fault merely going quiet.
func (m *Memory) ClearFault(id dimm.FaultID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mod.ClearFault(id)
}
