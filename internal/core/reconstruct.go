package core

import (
	"encoding/binary"

	"synergy/internal/dimm"
	"synergy/internal/integrity"
	"synergy/internal/telemetry"
)

// This file implements the RAID-3 Reconstruction Engine of Fig. 5(b):
// given a line whose MAC mismatches, sequentially rebuild each chip's
// contribution from parity and accept the first candidate whose MAC
// verifies. The MAC plays the role of the error-*detection* code; the
// parity supplies *correction*; the combination gives chipkill-level
// coverage from a single 9-chip DIMM.
//
// Every rebuild here is one identity. Each parity Synergy stores is the
// XOR of a line's chip slices: ParityC/ParityT (a counter or tree
// line's ECC slice) of its 8 data slices, the 9-chip parity of a data
// line's 8 data slices and its MAC, ParityP (a parity line's ECC slice)
// of its 8 slots. So any one slice c is
//
//	parity ⊕ integrity.SliceParity(data) ⊕ slice c  (⊕ the MAC slice for a data line)
//
// — slice c cancels out of the XOR of all slices. It is computed on
// 64-bit words; XOR is byte-wise, so the words' byte order only has to
// agree between load and store.
//
// Every function here runs with the owning Memory's lock held, so none
// takes a lock of its own. Reconstruction commits corrected lines back
// to the module and bumps stats/scoreboard state, so it needs the
// exclusive lock; preemptData only reads, and the shared-lock read
// paths call it too.

// reconstructEntry repairs a counter/tree path line using its intra-line
// parity (ParityC / ParityT, stored in the line's own ECC chip). A chip
// failure corrupts one counter (or major byte + minors) and one MAC
// byte; rebuilding the chip's 8-byte slice restores both. At most 8 MAC
// recomputations (§III-B). On success the entry's raw line and decoded
// view are updated in place.
func (m *Memory) reconstructEntry(e *pathEntry, parentCtr uint64) (int, int, error) {
	attempts := 0
	for chip := 0; chip < dimm.DataChips; chip++ {
		cand := *e
		rebuildSlice(&cand.raw.Data, chip, word(e.raw.ECC[:]))
		m.entryUnpack(&cand)
		attempts++
		m.stats.MACComputations++
		m.stats.ReconstructionAttempts++
		if m.entryVerify(&cand, parentCtr) {
			*e = cand
			m.noteReconstruction(e.addr, regionOfLevel(e.level), attempts, true)
			return chip, attempts, nil
		}
	}
	m.noteReconstruction(e.addr, regionOfLevel(e.level), attempts, false)
	return -1, attempts, ErrAttack
}

// noteReconstruction counts one run of a reconstruction loop, and
// whether it failed, and hands the run to the registry's sinks.
func (m *Memory) noteReconstruction(addr uint64, r Region, attempts int, success bool) {
	m.tally.reconstructions++
	if !success {
		m.tally.reconstructionFailures++
	}
	m.tel.EmitReconstruction(telemetry.ReconstructionEvent{
		Rank:     m.telRank,
		Line:     addr,
		Region:   r.String(),
		Attempts: attempts,
		Success:  success,
	})
}

// word loads the 8-byte chip slice at b as one word.
func word(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// putWord stores w as the 8-byte chip slice at b.
func putWord(b []byte, w uint64) { binary.LittleEndian.PutUint64(b, w) }

// sliceSum is integrity.SliceParity(data) as a word.
func sliceSum(data *[LineSize]byte) uint64 {
	p := integrity.SliceParity(data)
	return word(p[:])
}

// rebuildSlice rebuilds chip's slice of data in place from parity, the
// XOR of all 8 slices, and returns the rebuilt slice.
func rebuildSlice(data *[LineSize]byte, chip int, parity uint64) uint64 {
	s := data[chip*8 : chip*8+8]
	w := parity ^ sliceSum(data) ^ word(s)
	putWord(s, w)
	return w
}

// rebuildChip rebuilds chip's slice of data line l, a data slice or the
// MAC, in place from the line's 9-chip parity.
func rebuildChip(l *dimm.Line, chip int, parity uint64) {
	s := l.Slice(chip)
	putWord(s, parity^parity9(l)^word(s))
}

// reconstructData repairs a data line (8 data chips + MAC chip) using
// the 9-chip parity from the parity region, per Fig. 7(c) scenario D:
// first attempt the MAC chip, then each data chip; if every attempt
// fails, rebuild the parity itself through ParityP (the data line and
// its parity may share the failed chip) and retry. Up to 16 MAC
// recomputations over data (§IV-A) — MAC-chip attempts reuse the single
// MAC already computed over the unmodified data.
func (m *Memory) reconstructData(i uint64, ctr uint64, raw *dimm.Line) (fixed dimm.Line, chip, attempts int, usedPP bool, err error) {
	dataAddr := m.layout.DataAddr(i)
	pAddr, slot := m.layout.ParityAddr(i)
	pl, rerr := m.mod.ReadLine(pAddr)
	if rerr != nil {
		return dimm.Line{}, -1, 0, false, rerr
	}
	p1 := word(pl.Data[slot*8:])
	defer func() {
		m.noteReconstruction(dataAddr, RegionData, attempts, err == nil)
	}()

	// The MAC over the as-read data is computed once and reused for
	// both MAC-chip reconstruction attempts.
	dataMAC := m.mac.SumLine(dataAddr, ctr, &raw.Data)
	m.stats.MACComputations++

	try := func(p uint64) (dimm.Line, int, bool) {
		// rebuildChip's word for every chip c is base ⊕ slice c.
		base := p ^ parity9(raw)
		// Attempt 1: the MAC chip; accept if the rebuilt MAC equals the
		// computed one.
		m.stats.ReconstructionAttempts++
		f := *raw
		putWord(f.ECC[:], base^word(raw.ECC[:]))
		if binary.BigEndian.Uint64(f.ECC[:]) == dataMAC {
			return f, dimm.ECCChip, true
		}
		// Attempts 2..9: each data chip in turn.
		for c := 0; c < dimm.DataChips; c++ {
			cand := *raw
			s := cand.Data[c*8 : c*8+8]
			putWord(s, base^word(s))
			attempts++
			m.stats.MACComputations++
			m.stats.ReconstructionAttempts++
			if m.verifyData(dataAddr, ctr, &cand) {
				return cand, c, true
			}
		}
		return dimm.Line{}, -1, false
	}

	if f, c, ok := try(p1); ok {
		return f, c, attempts, false, nil
	}

	// The parity itself may live on the failed chip: rebuild parity
	// slot `slot` through ParityP (stored in the parity line's ECC
	// chip) and retry (§III-B "erroneous parity" scenario).
	p2 := rebuildSlice(&pl.Data, slot, word(pl.ECC[:]))
	if p2 != p1 {
		m.stats.ParityPUses++
		if f, c, ok := try(p2); ok {
			// Also repair the parity line so later accesses see a
			// consistent slot; its ParityP covers the rebuilt slot.
			if werr := m.mod.WriteLine(pAddr, pl.Data[:], pl.ECC[:]); werr != nil {
				return dimm.Line{}, -1, attempts, true, werr
			}
			return f, c, attempts, true, nil
		}
	}
	return dimm.Line{}, -1, attempts, p2 != p1, ErrAttack
}

// preemptNode rebuilds the condemned chip's slice of a memory-sourced
// path line before verification — the §IV-A mitigation that reduces
// steady-state correction cost under a permanent chip failure to the
// one MAC computation the baseline needs anyway. Either way e.raw ends
// up exactly as writeEntry would store the line, so comparing it with
// the stored cells tells whether the fix needs writing back. Requires
// knownBad ≥ 0.
func (m *Memory) preemptNode(e *pathEntry) {
	if m.knownBad >= dimm.DataChips {
		// The ECC chip holds only parity on node lines; node contents
		// are unaffected by its failure, and its slice is rebuilt from
		// them.
		e.raw.ECC = integrity.SliceParity(&e.raw.Data)
		return
	}
	rebuildSlice(&e.raw.Data, m.knownBad, word(e.raw.ECC[:]))
	m.entryUnpack(e)
}

// preemptData rebuilds the condemned chip's slice of data line i, as
// read into dl, from the line's parity before verification, and reports
// whether the candidate differs from the stored cells. A permanent fault
// corrupts reads, not cells, so in the §IV-A steady state it does not,
// and a verified candidate needs no store-back; a transient on the
// condemned chip makes it stale. It only reads the module, so the
// shared-lock read paths call it as well as tryPreemptive. Requires
// knownBad ≥ 0.
func (m *Memory) preemptData(i uint64, dl *dimm.Line) (stale bool, err error) {
	pAddr, slot := m.layout.ParityAddr(i)
	pl, err := m.mod.ReadLine(pAddr)
	if err != nil {
		return false, err
	}
	p := word(pl.Data[slot*8:])
	if slot == m.knownBad {
		// The parity slot itself sits on the condemned chip: rebuild it
		// through ParityP first.
		p = rebuildSlice(&pl.Data, slot, word(pl.ECC[:]))
	}
	rebuildChip(dl, m.knownBad, p)
	return !m.mod.Holds(m.layout.DataAddr(i), dl), nil
}
