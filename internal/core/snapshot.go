package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sort"

	"synergy/internal/dimm"
	"synergy/internal/persist"
)

// This file is the durability layer: quiesce-and-serialize an Array
// into the sealed snapshot format of internal/persist, and the
// fail-closed Restore that rebuilds engine state from one.
//
// What a snapshot holds is the device truth plus the trusted on-chip
// state that does not live in DRAM: per rank, the raw module image
// (data lines, encryption counters, Bonsai tree nodes, parity — all
// still encrypted and MACed exactly as stored), the on-chip root
// counter, the correction scoreboard and condemned-chip state, and the
// poison set. The metadata cache is NOT serialized: Snapshot flushes
// dirty entries first (the PR 6 Flush contract), after which the
// stored image is externally consistent and the cache is pure
// acceleration. Runtime fault models (dimm injected faults) are not
// state of the protected memory and are not serialized either.
//
// Security: the image's data lines are ciphertext and every metadata
// line carries its in-band MAC, so a stolen snapshot leaks no
// plaintext. On top of that, every snapshot section is sealed with a
// keyed MAC derived from the array's MAC key under a domain-separated
// address (snapMACDomain, far outside the line-address space), plus a
// whole-file checksum and length pin — so restore under the wrong key,
// a flipped bit, a truncated tail, or a swapped section all refuse
// with a typed sentinel before a single byte reaches the engine.

// Re-exported persist sentinels, so engine callers branch on one
// package's errors.
var (
	// ErrSnapshotCorrupt: complete but invalid snapshot (bit flip,
	// tampering, wrong key, malformed framing). See persist.
	ErrSnapshotCorrupt = persist.ErrSnapshotCorrupt
	// ErrSnapshotTorn: incomplete snapshot write (crash mid-write).
	ErrSnapshotTorn = persist.ErrSnapshotTorn
	// ErrNoSnapshot: the store holds no committed snapshot.
	ErrNoSnapshot = persist.ErrNoSnapshot
)

// ErrSnapshotMismatch is returned when a structurally valid, correctly
// MACed snapshot describes a different geometry than the array it is
// being restored into (lines, ranks, or counter organization).
var ErrSnapshotMismatch = errors.New("core: snapshot geometry does not match this array")

// ErrArrayLive is returned by Restore when the array still has live
// background machinery (a patrol scrubber). Stop scrubbers first: a
// pass racing a whole-device install would verify a mix of old and new
// state and could poison healthy lines.
var ErrArrayLive = errors.New("core: restore requires a quiesced array (stop background scrubbers first)")

// Snapshot section ids.
const (
	sectionMeta = 1 // array geometry
	sectionRank = 2 // one per rank, in rank order
)

// snapMACDomain separates snapshot-section MACs from line MACs in the
// keyed hash's address binding: the top bit is set, which no module
// line address can reach.
const snapMACDomain = uint64(1)<<63 | uint64(0x534E4150)<<16 // "SNAP"

// snapshotMAC builds the persist MAC factory from this rank's keyed
// MAC engine (keys are shared across an Array's ranks).
func (m *Memory) snapshotMAC() persist.MACFactory {
	return func(id, seq uint32) hash.Hash64 {
		return m.mac.NewHasher(snapMACDomain|uint64(id), uint64(seq))
	}
}

// metaPayload is the sectionMeta encoding: dataLines u64 | ranks u32 |
// split u8.
func (a *Array) metaPayload() []byte {
	buf := make([]byte, 13)
	binary.BigEndian.PutUint64(buf[0:], a.dataLines)
	binary.BigEndian.PutUint32(buf[8:], uint32(len(a.ranks)))
	if a.ranks[0].split {
		buf[12] = 1
	}
	return buf
}

// rankHeaderSize is the fixed prefix of a sectionRank payload: rank u32
// | root u64 | knownBad i64 | scoreboard 9×u64 | poisonCount u32 |
// totalLines u64.
const rankHeaderSize = 4 + 8 + 8 + dimm.Chips*8 + 4 + 8

// rankPayload serializes one rank's engine state plus its raw module
// image. Caller holds m.mu exclusively with metadata flushed.
func (m *Memory) rankPayload(rank int) ([]byte, error) {
	poison := make([]uint64, 0, len(m.poisoned))
	for i := range m.poisoned {
		poison = append(poison, i)
	}
	sort.Slice(poison, func(a, b int) bool { return poison[a] < poison[b] })

	buf := make([]byte, rankHeaderSize+len(poison)*8+m.mod.ImageSize())
	binary.BigEndian.PutUint32(buf[0:], uint32(rank))
	binary.BigEndian.PutUint64(buf[4:], m.root)
	binary.BigEndian.PutUint64(buf[12:], uint64(int64(m.knownBad)))
	off := 20
	for c := 0; c < dimm.Chips; c++ {
		binary.BigEndian.PutUint64(buf[off:], m.scoreboard[c])
		off += 8
	}
	binary.BigEndian.PutUint32(buf[off:], uint32(len(poison)))
	off += 4
	binary.BigEndian.PutUint64(buf[off:], m.layout.TotalLines)
	off += 8
	for _, p := range poison {
		binary.BigEndian.PutUint64(buf[off:], p)
		off += 8
	}
	if err := m.mod.Serialize(buf[off:]); err != nil {
		return nil, err
	}
	return buf, nil
}

// Snapshot quiesces the array and writes a sealed, crash-atomic
// checkpoint of its full state to store. Every rank's lock is held for
// the duration (traffic resumes when Snapshot returns), dirty cached
// metadata is flushed first so the stored image is externally
// consistent, and the store's previously committed snapshot is
// replaced only by a complete, committed write — a crash mid-snapshot
// leaves the old checkpoint intact.
//
// Background patrol scrubbers may stay running: they serialize on the
// same rank locks and simply pause while the image is taken.
// Cancelling ctx abandons the snapshot before any store write begins.
func (a *Array) Snapshot(ctx context.Context, store persist.Store) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// Full quiesce: all rank locks, ascending (the Array-wide total
	// order; batches acquire per-rank locks one at a time, so holding
	// several at once cannot deadlock against them).
	for _, m := range a.ranks {
		m.mu.Lock()
	}
	defer func() {
		for _, m := range a.ranks {
			m.mu.Unlock()
		}
	}()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	sections := make([]persist.Section, 0, 1+len(a.ranks))
	sections = append(sections, persist.Section{ID: sectionMeta, Payload: a.metaPayload()})
	for r, m := range a.ranks {
		if err := m.flushMetadata(); err != nil {
			return fmt.Errorf("core: snapshot: flushing rank %d: %w", r, err)
		}
		payload, err := m.rankPayload(r)
		if err != nil {
			return fmt.Errorf("core: snapshot: rank %d: %w", r, err)
		}
		sections = append(sections, persist.Section{ID: sectionRank, Payload: payload})
	}
	if err := persist.WriteSnapshot(store, a.ranks[0].snapshotMAC(), sections); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	return nil
}

// rankImage is one rank's fully validated staged restore state.
type rankImage struct {
	root       uint64
	knownBad   int
	scoreboard [dimm.Chips]uint64
	poison     []uint64
	image      []byte
}

// stageRestore validates every decoded section against this array's
// geometry and parses the per-rank state, mutating nothing. Any
// structural defect fails closed: a snapshot that passed its MACs but
// does not parse exactly is ErrSnapshotCorrupt; a well-formed snapshot
// of a different geometry is ErrSnapshotMismatch.
func (a *Array) stageRestore(secs []persist.Section) ([]rankImage, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrSnapshotCorrupt, fmt.Sprintf(format, args...))
	}
	if len(secs) == 0 || secs[0].ID != sectionMeta {
		return nil, corrupt("first section is not the geometry header")
	}
	meta := secs[0].Payload
	if len(meta) != 13 {
		return nil, corrupt("geometry header holds %d bytes, want 13", len(meta))
	}
	dataLines := binary.BigEndian.Uint64(meta[0:])
	ranks := binary.BigEndian.Uint32(meta[8:])
	split := meta[12] == 1
	if dataLines != a.dataLines || int(ranks) != len(a.ranks) || split != a.ranks[0].split {
		return nil, fmt.Errorf("%w: snapshot is %d lines × %d ranks (split=%v), array is %d × %d (split=%v)",
			ErrSnapshotMismatch, dataLines, ranks, split, a.dataLines, len(a.ranks), a.ranks[0].split)
	}
	if len(secs) != 1+len(a.ranks) {
		return nil, corrupt("%d sections for a %d-rank array", len(secs), len(a.ranks))
	}
	staged := make([]rankImage, len(a.ranks))
	for r, m := range a.ranks {
		s := secs[1+r]
		if s.ID != sectionRank {
			return nil, corrupt("section %d has id %d, want rank section", 1+r, s.ID)
		}
		p := s.Payload
		if len(p) < rankHeaderSize {
			return nil, corrupt("rank %d payload truncated at %d bytes", r, len(p))
		}
		if got := binary.BigEndian.Uint32(p[0:]); got != uint32(r) {
			return nil, corrupt("rank section %d labeled rank %d", r, got)
		}
		st := &staged[r]
		st.root = binary.BigEndian.Uint64(p[4:])
		st.knownBad = int(int64(binary.BigEndian.Uint64(p[12:])))
		if st.knownBad < -1 || st.knownBad >= dimm.Chips {
			return nil, corrupt("rank %d condemns chip %d", r, st.knownBad)
		}
		off := 20
		for c := 0; c < dimm.Chips; c++ {
			st.scoreboard[c] = binary.BigEndian.Uint64(p[off:])
			off += 8
		}
		nPoison := binary.BigEndian.Uint32(p[off:])
		off += 4
		totalLines := binary.BigEndian.Uint64(p[off:])
		off += 8
		if totalLines != m.layout.TotalLines {
			return nil, fmt.Errorf("%w: rank %d image spans %d module lines, layout has %d",
				ErrSnapshotMismatch, r, totalLines, m.layout.TotalLines)
		}
		if uint64(nPoison) > m.layout.DataLines {
			return nil, corrupt("rank %d claims %d poisoned lines", r, nPoison)
		}
		want := rankHeaderSize + int(nPoison)*8 + m.mod.ImageSize()
		if len(p) != want {
			return nil, corrupt("rank %d payload holds %d bytes, want %d", r, len(p), want)
		}
		st.poison = make([]uint64, nPoison)
		for k := range st.poison {
			st.poison[k] = binary.BigEndian.Uint64(p[off:])
			off += 8
			if st.poison[k] >= m.layout.DataLines {
				return nil, corrupt("rank %d poisons line %d beyond %d", r, st.poison[k], m.layout.DataLines)
			}
		}
		st.image = p[off:]
	}
	return staged, nil
}

// install commits one rank's staged image under m.mu: the raw module
// cells, the trusted on-chip state, a fresh (empty) metadata cache —
// everything cached referred to the pre-restore device — and a
// generation bump so in-flight optimistic readers retry.
func (m *Memory) install(st *rankImage) error {
	if err := m.mod.RestoreImage(st.image); err != nil {
		return err
	}
	m.root = st.root
	m.knownBad = st.knownBad
	m.scoreboard = st.scoreboard
	m.poisoned = make(map[uint64]struct{}, len(st.poison))
	for _, p := range st.poison {
		m.poisoned[p] = struct{}{}
	}
	m.ncache.reset()
	m.bumpAllGens()
	return nil
}

// Restore replaces this array's entire state with the store's committed
// snapshot. It fails closed: the snapshot is fully verified (length
// pin, checksum, every section MAC, structural parse, geometry match)
// before a single engine byte changes, and on any error — wrong key,
// bit flip, truncation, torn tail, geometry mismatch — the array keeps
// serving its pre-call state untouched. The error wraps exactly one of
// ErrSnapshotCorrupt, ErrSnapshotTorn, ErrSnapshotMismatch,
// ErrNoSnapshot, or ErrArrayLive.
//
// The array must be quiesced of background machinery: a live patrol
// scrubber (StartScrubber without Stop) is rejected with ErrArrayLive.
// The caller is responsible for not starting one concurrently with
// Restore. Foreground traffic is safe — it serializes on the rank
// locks — but a multi-rank batch racing the install may observe a mix
// of pre- and post-restore lines, each individually consistent.
func (a *Array) Restore(ctx context.Context, store persist.Store) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n := a.scrubbers.Load(); n != 0 {
		return fmt.Errorf("core: restore: %d background scrubbers running: %w", n, ErrArrayLive)
	}
	secs, err := persist.ReadSnapshot(store, a.ranks[0].snapshotMAC())
	if err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	staged, err := a.stageRestore(secs)
	if err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	for _, m := range a.ranks {
		m.mu.Lock()
	}
	defer func() {
		for _, m := range a.ranks {
			m.mu.Unlock()
		}
	}()
	for r, m := range a.ranks {
		if err := m.install(&staged[r]); err != nil {
			// Unreachable with a staged image (sizes were validated),
			// but never swallow an install fault silently.
			return fmt.Errorf("core: restore: rank %d: %w", r, err)
		}
	}
	return nil
}

// RestoreArray builds a new Array from cfg and loads the store's
// committed snapshot into it — the boot-time restore path. cfg must
// describe the snapshot's geometry and carry the keys it was sealed
// under; on any verification failure no array is returned.
func RestoreArray(cfg Config, store persist.Store) (*Array, error) {
	a, err := NewArray(cfg)
	if err != nil {
		return nil, err
	}
	if err := a.Restore(context.Background(), store); err != nil {
		return nil, err
	}
	return a, nil
}
