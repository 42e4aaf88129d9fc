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
// Every function here runs with the owning Memory's lock held, so none
// takes a lock of its own. Reconstruction commits corrected lines back
// to the module and bumps stats/scoreboard state, so it needs the
// exclusive lock; preemptData and storedDiffers only read, and the
// shared-lock read paths call them too.

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
		cand.raw = e.raw
		rebuildSlice(cand.raw.Data[:], chip, e.raw.ECC[:])
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

// rebuildSlice replaces chip's 8-byte slice of a 64-byte line with
// parity XOR all other slices.
func rebuildSlice(line []byte, chip int, parity []byte) {
	var rec [8]byte
	copy(rec[:], parity)
	for other := 0; other < 8; other++ {
		if other == chip {
			continue
		}
		for b := 0; b < 8; b++ {
			rec[b] ^= line[other*8+b]
		}
	}
	copy(line[chip*8:chip*8+8], rec[:])
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
	var p1 [8]byte
	copy(p1[:], pl.Data[slot*8:slot*8+8])
	defer func() {
		m.noteReconstruction(dataAddr, RegionData, attempts, err == nil)
	}()

	// The MAC over the as-read data is computed once and reused for
	// both MAC-chip reconstruction attempts.
	dataMAC := m.mac.SumLine(dataAddr, ctr, &raw.Data)
	m.stats.MACComputations++

	try := func(p [8]byte) (dimm.Line, int, bool) {
		// Attempt 1: the MAC chip. Candidate stored MAC = parity XOR
		// the 8 data slices; accept if it equals the computed MAC.
		m.stats.ReconstructionAttempts++
		candMAC := p
		for c := 0; c < dimm.DataChips; c++ {
			for b := 0; b < 8; b++ {
				candMAC[b] ^= raw.Data[c*8+b]
			}
		}
		if binary.BigEndian.Uint64(candMAC[:]) == dataMAC {
			f := *raw
			copy(f.ECC[:], candMAC[:])
			return f, dimm.ECCChip, true
		}
		// Attempts 2..9: each data chip in turn.
		for c := 0; c < dimm.DataChips; c++ {
			cand := *raw
			var rec [8]byte
			copy(rec[:], p[:])
			for other := 0; other < dimm.DataChips; other++ {
				if other == c {
					continue
				}
				for b := 0; b < 8; b++ {
					rec[b] ^= raw.Data[other*8+b]
				}
			}
			for b := 0; b < 8; b++ {
				rec[b] ^= raw.ECC[b]
			}
			copy(cand.Data[c*8:c*8+8], rec[:])
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
	var p2 [8]byte
	copy(p2[:], pl.ECC[:])
	for s := 0; s < 8; s++ {
		if s == slot {
			continue
		}
		for b := 0; b < 8; b++ {
			p2[b] ^= pl.Data[s*8+b]
		}
	}
	if p2 != p1 {
		m.stats.ParityPUses++
		if f, c, ok := try(p2); ok {
			// Also repair the parity line so later accesses see a
			// consistent slot.
			copy(pl.Data[slot*8:slot*8+8], p2[:])
			pp := integrity.SliceParity(&pl.Data)
			if werr := m.mod.WriteLine(pAddr, pl.Data[:], pp[:]); werr != nil {
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
	rebuildSlice(e.raw.Data[:], m.knownBad, e.raw.ECC[:])
	m.entryUnpack(e)
}

// storedDiffers reports whether the cells stored at addr differ from l,
// i.e. whether serving l leaves a repair unwritten.
func (m *Memory) storedDiffers(addr uint64, l *dimm.Line) bool {
	stored, _ := m.mod.PeekLine(addr)
	return stored != *l
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
	var p [8]byte
	if slot == m.knownBad && m.knownBad < dimm.DataChips {
		// The parity slot itself sits on the condemned chip: rebuild
		// it through ParityP first.
		copy(p[:], pl.ECC[:])
		for s := 0; s < 8; s++ {
			if s == slot {
				continue
			}
			for b := 0; b < 8; b++ {
				p[b] ^= pl.Data[s*8+b]
			}
		}
	} else {
		copy(p[:], pl.Data[slot*8:slot*8+8])
	}
	if m.knownBad == dimm.ECCChip {
		// Rebuild the MAC slice: parity XOR the 8 data slices.
		rec := p
		for c := 0; c < dimm.DataChips; c++ {
			for b := 0; b < 8; b++ {
				rec[b] ^= dl.Data[c*8+b]
			}
		}
		copy(dl.ECC[:], rec[:])
		return m.storedDiffers(m.layout.DataAddr(i), dl), nil
	}
	// Rebuild the data slice: parity XOR other data slices XOR MAC.
	var rec [8]byte
	copy(rec[:], p[:])
	for c := 0; c < dimm.DataChips; c++ {
		if c == m.knownBad {
			continue
		}
		for b := 0; b < 8; b++ {
			rec[b] ^= dl.Data[c*8+b]
		}
	}
	for b := 0; b < 8; b++ {
		rec[b] ^= dl.ECC[b]
	}
	copy(dl.Data[m.knownBad*8:m.knownBad*8+8], rec[:])
	return m.storedDiffers(m.layout.DataAddr(i), dl), nil
}
