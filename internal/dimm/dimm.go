// Package dimm models a 9-chip x8 ECC-DIMM at chip granularity, the
// physical substrate of the SYNERGY design (paper §II-D, Fig. 5).
//
// A 64-byte cacheline burst delivers 8 bytes from each of the 8 data
// chips (C0–C7) plus 8 bytes from the ECC chip (C8) in the same access.
// Conventional systems put a SECDED code in the ECC chip; Synergy puts
// the cacheline MAC there. This package stores lines as 9 chip slices
// and supports injecting the fault classes of the paper's reliability
// model (Table I): transient cell upsets that corrupt stored bits once,
// and permanent chip faults that corrupt every read touching the chip.
package dimm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

const (
	// DataChips is the number of data chips on an x8 ECC-DIMM rank.
	DataChips = 8
	// ECCChip is the index of the ninth (ECC) chip.
	ECCChip = 8
	// Chips is the total number of chips (8 data + 1 ECC).
	Chips = 9
	// SliceSize is the number of bytes each chip contributes per line.
	SliceSize = 8
	// LineSize is the data payload of one cacheline in bytes.
	LineSize = DataChips * SliceSize
)

// Line is the full 72-byte content of one cacheline location: 64 bytes of
// data chips plus the 8-byte ECC-chip slice.
type Line struct {
	Data [LineSize]byte
	ECC  [SliceSize]byte
}

// Slice returns chip's 8-byte contribution to the line, or nil when
// chip is not in [0, ECCChip].
func (l *Line) Slice(chip int) []byte {
	if chip == ECCChip {
		return l.ECC[:]
	}
	if chip < 0 || chip > ECCChip {
		return nil
	}
	return l.Data[chip*SliceSize : (chip+1)*SliceSize]
}

// FaultKind classifies injected faults, mirroring Table I of the paper.
type FaultKind int

const (
	// FaultTransientBit flips stored bits once; subsequent writes heal it.
	FaultTransientBit FaultKind = iota
	// FaultPermanentChip corrupts a chip's output on every read within
	// the fault's address range until the fault is cleared (models
	// failed chips, rows, banks — anything that makes the chip's
	// contribution untrustworthy).
	FaultPermanentChip
)

func (k FaultKind) String() string {
	switch k {
	case FaultTransientBit:
		return "transient-bit"
	case FaultPermanentChip:
		return "permanent-chip"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// fault is an active read-path fault.
type fault struct {
	chip     int
	lo, hi   uint64 // line-address range [lo, hi], inclusive
	mask     uint64 // the injected mask as a word (see xorSlice)
	disabled bool
}

// xorSlice XORs mask, a mask's bytes as a little-endian word, into the
// 8-byte chip slice s in one operation.
func xorSlice(s []byte, mask uint64) {
	binary.LittleEndian.PutUint64(s, binary.LittleEndian.Uint64(s)^mask)
}

// Module is one rank of a 9-chip ECC-DIMM addressed by line index.
// The memory controller above it serializes mutation, as real command
// buses do: WriteLine and every fault-injection call require exclusive
// access. ReadLine, PeekLine and Holds are safe to run concurrently with
// each other (the access counters are atomic and the stored cells are
// only read) but not with a concurrent mutator — core.Memory's rank
// RWMutex provides exactly that discipline for its shared-lock read
// path.
type Module struct {
	lines      uint64
	store      []Line
	faults     []fault
	readCount  atomic.Uint64
	writeCount atomic.Uint64
}

// ErrOutOfRange reports an access beyond the module's capacity.
var ErrOutOfRange = errors.New("dimm: line address out of range")

// New creates a module with capacity for the given number of cachelines.
func New(lines uint64) (*Module, error) {
	if lines == 0 {
		return nil, errors.New("dimm: module must have at least one line")
	}
	return &Module{lines: lines, store: make([]Line, lines)}, nil
}

// Lines returns the module capacity in cachelines.
func (m *Module) Lines() uint64 { return m.lines }

// Reads returns the number of ReadLine calls served.
func (m *Module) Reads() uint64 { return m.readCount.Load() }

// Writes returns the number of WriteLine calls served.
func (m *Module) Writes() uint64 { return m.writeCount.Load() }

// WriteLine stores a 72-byte line (64 B data + 8 B ECC-chip slice).
// Writing heals transient faults at the address (the cells are rewritten)
// but not permanent faults.
func (m *Module) WriteLine(addr uint64, data []byte, ecc []byte) error {
	if addr >= m.lines {
		return fmt.Errorf("%w: %#x >= %#x", ErrOutOfRange, addr, m.lines)
	}
	if len(data) != LineSize || len(ecc) != SliceSize {
		return fmt.Errorf("dimm: WriteLine needs %d+%d bytes, got %d+%d",
			LineSize, SliceSize, len(data), len(ecc))
	}
	l := &m.store[addr]
	copy(l.Data[:], data)
	copy(l.ECC[:], ecc)
	m.writeCount.Add(1)
	return nil
}

// ReadLine fetches the 72-byte line at addr, applying any active
// permanent faults covering it. The returned Line is a copy.
func (m *Module) ReadLine(addr uint64) (Line, error) {
	if addr >= m.lines {
		return Line{}, fmt.Errorf("%w: %#x >= %#x", ErrOutOfRange, addr, m.lines)
	}
	l := m.store[addr] // copy
	for i := range m.faults {
		f := &m.faults[i]
		if f.disabled || addr < f.lo || addr > f.hi {
			continue
		}
		xorSlice(l.Slice(f.chip), f.mask)
	}
	m.readCount.Add(1)
	return l, nil
}

// PeekLine returns the stored content of addr without applying read-path
// faults and without counting as a device access, or ok=false when addr
// is out of range. It is the raw-cell view: what a repair rebuilds
// parity from, and what a rebuilt line is compared against to decide
// whether it must be written back. Unlike ReadLine it mutates nothing,
// so concurrent PeekLine calls are safe as long as no writer is active.
func (m *Module) PeekLine(addr uint64) (Line, bool) {
	if addr >= m.lines {
		return Line{}, false
	}
	return m.store[addr], true
}

// Holds reports whether the cells stored at addr equal l, or false when
// addr is out of range. It compares in place: no read-path faults, no
// copy of the line, no device access counted. It is how a rebuilt line
// is checked against the cells to decide whether it must be written
// back. Like PeekLine it mutates nothing, so concurrent Holds, PeekLine
// and ReadLine calls are safe as long as no writer is active.
func (m *Module) Holds(addr uint64, l *Line) bool {
	return addr < m.lines && m.store[addr] == *l
}

// ImageSize returns the byte length of the module's raw cell image
// (72 bytes per line: 64 data + 8 ECC).
func (m *Module) ImageSize() int { return int(m.lines) * (LineSize + SliceSize) }

// Serialize copies the raw stored cells — every line's data and ECC
// slices, exactly as written, with no read-path faults applied — into
// dst, which must be exactly ImageSize bytes. It is the snapshot
// source: the caller (core.Memory) holds its rank lock, so no writer
// is concurrent. Active fault models are runtime state and are not
// part of the image.
func (m *Module) Serialize(dst []byte) error {
	if len(dst) != m.ImageSize() {
		return fmt.Errorf("dimm: Serialize needs %d bytes, got %d", m.ImageSize(), len(dst))
	}
	for i := range m.store {
		off := i * (LineSize + SliceSize)
		copy(dst[off:], m.store[i].Data[:])
		copy(dst[off+LineSize:], m.store[i].ECC[:])
	}
	return nil
}

// RestoreImage replaces every stored cell from a Serialize image of the
// same geometry. Unlike WriteLine it does not count as device accesses
// and does not interact with fault models: it is the restore sink, a
// whole-device install the controller performs before serving traffic.
// Permanent faults injected on this module stay active across it.
func (m *Module) RestoreImage(src []byte) error {
	if len(src) != m.ImageSize() {
		return fmt.Errorf("dimm: RestoreImage needs %d bytes, got %d", m.ImageSize(), len(src))
	}
	for i := range m.store {
		off := i * (LineSize + SliceSize)
		copy(m.store[i].Data[:], src[off:off+LineSize])
		copy(m.store[i].ECC[:], src[off+LineSize:off+LineSize+SliceSize])
	}
	return nil
}

// FaultID identifies an injected permanent fault for later clearing.
type FaultID int

// InjectTransient XORs mask into the stored slice of chip at addr — a
// one-shot cell corruption (particle strike, disturbance error). The next
// write to the line heals it.
func (m *Module) InjectTransient(addr uint64, chip int, mask [SliceSize]byte) error {
	if err := m.checkChipAddr(addr, chip); err != nil {
		return err
	}
	xorSlice(m.store[addr].Slice(chip), binary.LittleEndian.Uint64(mask[:]))
	return nil
}

// InjectPermanent installs a read-path fault: every read of a line in
// [lo, hi] sees chip's slice XORed with mask. Use lo=0, hi=Lines()-1 for
// a whole-chip failure; narrower ranges model row/bank faults.
func (m *Module) InjectPermanent(chip int, lo, hi uint64, mask [SliceSize]byte) (FaultID, error) {
	if err := m.checkChipAddr(lo, chip); err != nil {
		return 0, err
	}
	if hi >= m.lines || hi < lo {
		return 0, fmt.Errorf("%w: bad fault range [%#x, %#x]", ErrOutOfRange, lo, hi)
	}
	if mask == ([SliceSize]byte{}) {
		return 0, errors.New("dimm: permanent fault mask must be non-zero")
	}
	m.faults = append(m.faults, fault{chip: chip, lo: lo, hi: hi, mask: binary.LittleEndian.Uint64(mask[:])})
	return FaultID(len(m.faults) - 1), nil
}

// ClearFault disables a previously injected permanent fault (chip
// replacement / rank sparing in a real system).
func (m *Module) ClearFault(id FaultID) error {
	if int(id) < 0 || int(id) >= len(m.faults) {
		return errors.New("dimm: unknown fault id")
	}
	m.faults[id].disabled = true
	return nil
}

// ClearChipFaults disables every active permanent fault on the given
// chip (the fault-model half of replacing a failed chip; the stored
// slices the dead chip returned garbage for still need rebuilding — see
// core.Array.RepairChip). It returns the number of faults cleared.
func (m *Module) ClearChipFaults(chip int) (int, error) {
	if chip < 0 || chip >= Chips {
		return 0, fmt.Errorf("dimm: chip %d out of range [0,%d)", chip, Chips)
	}
	n := 0
	for i := range m.faults {
		f := &m.faults[i]
		if f.chip == chip && !f.disabled {
			f.disabled = true
			n++
		}
	}
	return n, nil
}

// ActiveFaults returns the number of enabled permanent faults.
func (m *Module) ActiveFaults() int {
	n := 0
	for i := range m.faults {
		if !m.faults[i].disabled {
			n++
		}
	}
	return n
}

func (m *Module) checkChipAddr(addr uint64, chip int) error {
	if addr >= m.lines {
		return fmt.Errorf("%w: %#x >= %#x", ErrOutOfRange, addr, m.lines)
	}
	if chip < 0 || chip >= Chips {
		return fmt.Errorf("dimm: chip %d out of range [0,%d)", chip, Chips)
	}
	return nil
}
