package dimm

import (
	"bytes"
	"testing"
	"testing/quick"
)

func newModule(t testing.TB, lines uint64) *Module {
	t.Helper()
	m, err := New(lines)
	if err != nil {
		t.Fatalf("New(%d): %v", lines, err)
	}
	return m
}

func TestNewRejectsZeroLines(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("New(0) succeeded")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := newModule(t, 16)
	data := bytes.Repeat([]byte{0xCD}, LineSize)
	ecc := bytes.Repeat([]byte{0xEE}, SliceSize)
	if err := m.WriteLine(3, data, ecc); err != nil {
		t.Fatal(err)
	}
	l, err := m.ReadLine(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(l.Data[:], data) || !bytes.Equal(l.ECC[:], ecc) {
		t.Fatal("round trip mismatch")
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	m := newModule(t, 4)
	if err := m.WriteLine(4, make([]byte, LineSize), make([]byte, SliceSize)); err == nil {
		t.Fatal("WriteLine past capacity succeeded")
	}
	if _, err := m.ReadLine(4); err == nil {
		t.Fatal("ReadLine past capacity succeeded")
	}
}

func TestWriteLineValidatesSizes(t *testing.T) {
	m := newModule(t, 4)
	if err := m.WriteLine(0, make([]byte, 63), make([]byte, 8)); err == nil {
		t.Fatal("short data accepted")
	}
	if err := m.WriteLine(0, make([]byte, 64), make([]byte, 7)); err == nil {
		t.Fatal("short ecc accepted")
	}
}

func TestSliceAddressing(t *testing.T) {
	var l Line
	for i := range l.Data {
		l.Data[i] = byte(i)
	}
	for i := range l.ECC {
		l.ECC[i] = byte(0xF0 + i)
	}
	for chip := 0; chip < DataChips; chip++ {
		s := l.Slice(chip)
		if len(s) != SliceSize || s[0] != byte(chip*SliceSize) {
			t.Fatalf("chip %d slice wrong: %v", chip, s)
		}
	}
	if s := l.Slice(ECCChip); s[0] != 0xF0 {
		t.Fatalf("ECC slice wrong: %v", s)
	}
}

func TestTransientFaultHealsOnWrite(t *testing.T) {
	m := newModule(t, 8)
	data := make([]byte, LineSize)
	ecc := make([]byte, SliceSize)
	if err := m.WriteLine(1, data, ecc); err != nil {
		t.Fatal(err)
	}
	if err := m.InjectTransient(1, 2, [SliceSize]byte{0x01}); err != nil {
		t.Fatal(err)
	}
	l, _ := m.ReadLine(1)
	if l.Data[2*SliceSize] != 0x01 {
		t.Fatal("transient fault not visible")
	}
	// Rewriting the line heals the cell.
	if err := m.WriteLine(1, data, ecc); err != nil {
		t.Fatal(err)
	}
	l, _ = m.ReadLine(1)
	if l.Data[2*SliceSize] != 0x00 {
		t.Fatal("transient fault survived rewrite")
	}
}

func TestTransientFaultOnECCChip(t *testing.T) {
	m := newModule(t, 8)
	m.WriteLine(0, make([]byte, LineSize), make([]byte, SliceSize))
	if err := m.InjectTransient(0, ECCChip, [SliceSize]byte{0, 0, 0xFF}); err != nil {
		t.Fatal(err)
	}
	l, _ := m.ReadLine(0)
	if l.ECC[2] != 0xFF {
		t.Fatal("ECC-chip transient fault not visible")
	}
}

func TestPermanentFaultPersistsAcrossWrites(t *testing.T) {
	m := newModule(t, 8)
	data := make([]byte, LineSize)
	ecc := make([]byte, SliceSize)
	m.WriteLine(5, data, ecc)
	id, err := m.InjectPermanent(4, 0, m.Lines()-1, [SliceSize]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := m.ReadLine(5)
	if l.Data[4*SliceSize] != 0xFF {
		t.Fatal("permanent fault not visible")
	}
	m.WriteLine(5, data, ecc) // writes do not heal a failed chip
	l, _ = m.ReadLine(5)
	if l.Data[4*SliceSize] != 0xFF {
		t.Fatal("permanent fault healed by write")
	}
	if err := m.ClearFault(id); err != nil {
		t.Fatal(err)
	}
	l, _ = m.ReadLine(5)
	if l.Data[4*SliceSize] != 0x00 {
		t.Fatal("cleared fault still visible")
	}
}

func TestPermanentFaultRange(t *testing.T) {
	m := newModule(t, 16)
	for a := uint64(0); a < 16; a++ {
		m.WriteLine(a, make([]byte, LineSize), make([]byte, SliceSize))
	}
	// Row-style fault covering lines [4, 7] on chip 0.
	if _, err := m.InjectPermanent(0, 4, 7, [SliceSize]byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 16; a++ {
		l, _ := m.ReadLine(a)
		corrupted := l.Data[0] != 0
		want := a >= 4 && a <= 7
		if corrupted != want {
			t.Fatalf("line %d: corrupted=%v, want %v", a, corrupted, want)
		}
	}
}

func TestInjectPermanentValidation(t *testing.T) {
	m := newModule(t, 8)
	if _, err := m.InjectPermanent(9, 0, 7, [SliceSize]byte{1}); err == nil {
		t.Fatal("chip 9 accepted")
	}
	if _, err := m.InjectPermanent(0, 5, 3, [SliceSize]byte{1}); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := m.InjectPermanent(0, 0, 8, [SliceSize]byte{1}); err == nil {
		t.Fatal("range past capacity accepted")
	}
	if _, err := m.InjectPermanent(0, 0, 7, [SliceSize]byte{}); err == nil {
		t.Fatal("zero mask accepted")
	}
}

func TestActiveFaults(t *testing.T) {
	m := newModule(t, 8)
	id1, _ := m.InjectPermanent(0, 0, 7, [SliceSize]byte{1})
	m.InjectPermanent(1, 0, 7, [SliceSize]byte{1})
	if got := m.ActiveFaults(); got != 2 {
		t.Fatalf("ActiveFaults = %d, want 2", got)
	}
	m.ClearFault(id1)
	if got := m.ActiveFaults(); got != 1 {
		t.Fatalf("ActiveFaults after clear = %d, want 1", got)
	}
	if err := m.ClearFault(FaultID(99)); err == nil {
		t.Fatal("ClearFault(99) succeeded")
	}
}

func TestAccessCounters(t *testing.T) {
	m := newModule(t, 8)
	m.WriteLine(0, make([]byte, LineSize), make([]byte, SliceSize))
	m.ReadLine(0)
	m.ReadLine(0)
	if m.Writes() != 1 || m.Reads() != 2 {
		t.Fatalf("counters = %d writes, %d reads", m.Writes(), m.Reads())
	}
}

// Property: without faults, any write/read pair round-trips at any address.
func TestRoundTripProperty(t *testing.T) {
	m := newModule(t, 64)
	f := func(addr uint64, seed byte) bool {
		addr %= 64
		data := bytes.Repeat([]byte{seed}, LineSize)
		ecc := bytes.Repeat([]byte{^seed}, SliceSize)
		if err := m.WriteLine(addr, data, ecc); err != nil {
			return false
		}
		l, err := m.ReadLine(addr)
		if err != nil {
			return false
		}
		return bytes.Equal(l.Data[:], data) && bytes.Equal(l.ECC[:], ecc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFaultKindString(t *testing.T) {
	if FaultTransientBit.String() != "transient-bit" {
		t.Error("FaultTransientBit.String() wrong")
	}
	if FaultPermanentChip.String() != "permanent-chip" {
		t.Error("FaultPermanentChip.String() wrong")
	}
	if FaultKind(42).String() == "" {
		t.Error("unknown FaultKind should still stringify")
	}
}

// Fault masks are applied as one word XOR; each byte of the mask must
// land on the same byte of the chip's slice, on every chip, for
// permanent faults (on reads) and transients (in the cells) alike.
func TestFaultMasksApplyBytewise(t *testing.T) {
	mask := [SliceSize]byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF}
	data := bytes.Repeat([]byte{0x5A}, LineSize)
	ecc := bytes.Repeat([]byte{0xC3}, SliceSize)
	for chip := 0; chip < Chips; chip++ {
		var want Line
		copy(want.Data[:], data)
		copy(want.ECC[:], ecc)
		for b, v := range mask {
			want.Slice(chip)[b] ^= v
		}

		m := newModule(t, 2)
		m.WriteLine(0, data, ecc)
		m.WriteLine(1, data, ecc)
		if _, err := m.InjectPermanent(chip, 0, 0, mask); err != nil {
			t.Fatal(err)
		}
		if l, _ := m.ReadLine(0); l != want {
			t.Fatalf("chip %d: permanent fault read %x|%x, want %x|%x", chip, l.Data, l.ECC, want.Data, want.ECC)
		}
		if err := m.InjectTransient(1, chip, mask); err != nil {
			t.Fatal(err)
		}
		if l, _ := m.PeekLine(1); l != want {
			t.Fatalf("chip %d: transient stored %x|%x, want %x|%x", chip, l.Data, l.ECC, want.Data, want.ECC)
		}
	}
}

// Holds compares against the stored cells: read-path faults do not
// affect it, transients do, and it counts no device access.
func TestHolds(t *testing.T) {
	m := newModule(t, 4)
	data := bytes.Repeat([]byte{0x11}, LineSize)
	ecc := bytes.Repeat([]byte{0x22}, SliceSize)
	m.WriteLine(2, data, ecc)
	stored, _ := m.PeekLine(2)
	if _, err := m.InjectPermanent(3, 0, m.Lines()-1, [SliceSize]byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	reads := m.Reads()
	if !m.Holds(2, &stored) {
		t.Fatal("Holds(stored cells) = false under a read-path fault")
	}
	if read, _ := m.ReadLine(2); m.Holds(2, &read) {
		t.Fatal("Holds(faulted read) = true")
	}
	if m.Holds(m.Lines(), &stored) {
		t.Fatal("Holds past capacity = true")
	}
	if err := m.InjectTransient(2, ECCChip, [SliceSize]byte{7: 1}); err != nil {
		t.Fatal(err)
	}
	if m.Holds(2, &stored) {
		t.Fatal("Holds = true after a transient changed the cells")
	}
	if got := m.Reads() - reads; got != 1 {
		t.Fatalf("%d device reads counted, want 1 (the ReadLine)", got)
	}
}
