package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"testing"
)

func newArray(t testing.TB, lines uint64, ranks int) *Array {
	t.Helper()
	a, err := NewArray(Config{DataLines: lines, FaultThreshold: 3, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewArrayValidation(t *testing.T) {
	if _, err := NewArray(Config{DataLines: 64, Ranks: -1}); err == nil {
		t.Fatal("accepted negative ranks")
	}
	if _, err := NewArray(Config{Ranks: 2}); err == nil {
		t.Fatal("accepted zero capacity")
	}
	// Ranks 0 defaults to a single rank.
	if a, err := NewArray(Config{DataLines: 64}); err != nil || a.Ranks() != 1 {
		t.Fatalf("default ranks: %v, %d", err, a.Ranks())
	}
	a := newArray(t, 256, 4)
	if a.Ranks() != 4 || a.DataLines() != 256 {
		t.Fatalf("ranks=%d lines=%d", a.Ranks(), a.DataLines())
	}
}

func TestArrayRoundTripInterleaves(t *testing.T) {
	a := newArray(t, 256, 4)
	for i := uint64(0); i < 256; i++ {
		if err := a.Write(i, fillLine(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, LineSize)
	for i := uint64(0); i < 256; i++ {
		if _, err := a.Read(i, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, fillLine(byte(i))) {
			t.Fatalf("line %d wrong", i)
		}
	}
	// Interleave: each rank served 1/4 of the traffic.
	for r := 0; r < 4; r++ {
		if got := a.Rank(r).Stats().Writes; got != 64 {
			t.Fatalf("rank %d served %d writes, want 64", r, got)
		}
	}
	if a.Stats().Writes != 256 {
		t.Fatalf("aggregate writes = %d", a.Stats().Writes)
	}
}

func TestArrayBounds(t *testing.T) {
	a := newArray(t, 64, 2)
	buf := make([]byte, LineSize)
	if _, err := a.Read(64, buf); err == nil {
		t.Fatal("read past end")
	}
	if err := a.Write(64, buf); err == nil {
		t.Fatal("write past end")
	}
}

// The multi-rank headline: one failed chip in EVERY rank simultaneously
// — four concurrent chip failures — all survivable, because each rank
// is an independent 9-chip protection group.
func TestArraySurvivesOneChipPerRank(t *testing.T) {
	a := newArray(t, 512, 4)
	want := make(map[uint64][]byte)
	var lines []uint64
	for i := uint64(0); i < 512; i++ {
		inner := i / 4
		badChip := int(i % 4) // rank r loses chip r+2
		if inner%8 == uint64(badChip+2) {
			continue // parity-slot residual window (DESIGN.md §7.1)
		}
		lines = append(lines, i)
		want[i] = fillLine(byte(i * 7))
		if err := a.Write(i, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 4; r++ {
		m := a.Rank(r)
		if _, err := m.Module().InjectPermanent(r+2, 0, m.Module().Lines()-1, [8]byte{0x11 << r}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, LineSize)
	for pass := 0; pass < 2; pass++ {
		for _, i := range lines {
			if _, err := a.Read(i, buf); err != nil {
				t.Fatalf("pass %d line %d: %v", pass, i, err)
			}
			if !bytes.Equal(buf, want[i]) {
				t.Fatalf("pass %d line %d wrong data", pass, i)
			}
		}
	}
	// Each rank's scoreboard condemned its own chip.
	for r := 0; r < 4; r++ {
		if got := a.Rank(r).KnownBadChip(); got != r+2 {
			t.Fatalf("rank %d condemned chip %d, want %d", r, got, r+2)
		}
	}
}

func TestArrayScrub(t *testing.T) {
	a := newArray(t, 128, 2)
	for i := uint64(0); i < 128; i++ {
		a.Write(i, fillLine(byte(i)))
	}
	// One transient in each rank.
	a.Rank(0).Module().InjectTransient(a.Rank(0).Layout().DataAddr(3), 1, [8]byte{1})
	a.Rank(1).Module().InjectTransient(a.Rank(1).Layout().DataAddr(9), 2, [8]byte{2})
	rep, err := a.Scrub(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrected != 2 {
		t.Fatalf("scrub corrected %d, want 2", rep.Corrected)
	}
	if rep.Scanned != 128 {
		t.Fatalf("scrub scanned %d, want 128", rep.Scanned)
	}
	if len(rep.Poisoned) != 0 {
		t.Fatalf("scrub poisoned %v, want none", rep.Poisoned)
	}
}

// --- block device ---

func TestDeviceValidation(t *testing.T) {
	if _, err := NewDevice(nil); err == nil {
		t.Fatal("accepted nil array")
	}
}

func TestDeviceAlignedRoundTrip(t *testing.T) {
	a, _ := newMemory(t, 16)
	d, err := NewDevice(a)
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 16*LineSize {
		t.Fatalf("Size = %d", d.Size())
	}
	data := bytes.Repeat([]byte{0xAB, 0xCD}, LineSize) // two lines
	if n, err := d.WriteAt(data, 2*LineSize); err != nil || n != len(data) {
		t.Fatalf("WriteAt: %d, %v", n, err)
	}
	got := make([]byte, len(data))
	if n, err := d.ReadAt(got, 2*LineSize); err != nil || n != len(data) {
		t.Fatalf("ReadAt: %d, %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("aligned round trip mismatch")
	}
}

func TestDeviceUnalignedRMW(t *testing.T) {
	a, _ := newMemory(t, 16)
	d, _ := NewDevice(a)
	base := bytes.Repeat([]byte{0x11}, 3*LineSize)
	d.WriteAt(base, 0)
	// Overwrite a span that starts and ends mid-line.
	patch := bytes.Repeat([]byte{0x22}, LineSize+20)
	if _, err := d.WriteAt(patch, 30); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3*LineSize)
	if _, err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := byte(0x11)
		if i >= 30 && i < 30+len(patch) {
			want = 0x22
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestDeviceEOFAndBounds(t *testing.T) {
	a, _ := newMemory(t, 4)
	d, _ := NewDevice(a)
	buf := make([]byte, 100)
	n, err := d.ReadAt(buf, d.Size()-50)
	if err != io.EOF || n != 50 {
		t.Fatalf("tail read: n=%d err=%v", n, err)
	}
	if _, err := d.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := d.WriteAt(buf, d.Size()-10); err == nil {
		t.Fatal("write past end accepted")
	}
}

func TestDeviceSurfacesAttack(t *testing.T) {
	a, m := newMemory(t, 8)
	d, _ := NewDevice(a)
	d.WriteAt(bytes.Repeat([]byte{1}, LineSize), 0)
	addr := m.Layout().DataAddr(0)
	m.Module().InjectTransient(addr, 0, [8]byte{1})
	m.Module().InjectTransient(addr, 5, [8]byte{2})
	buf := make([]byte, 16)
	if _, err := d.ReadAt(buf, 0); !errors.Is(err, ErrAttack) {
		t.Fatalf("err = %v, want wrapped ErrAttack", err)
	}
}

func TestDeviceOverArray(t *testing.T) {
	a := newArray(t, 64, 4)
	d, err := NewDevice(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	data := make([]byte, 1000)
	rng.Read(data)
	if _, err := d.WriteAt(data, 777); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(got, 777); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("array-backed device round trip failed")
	}
}

// TestDeviceShortCountOnFailure holds Device to the io.ReaderAt and
// io.WriterAt contract on a failing line: n counts exactly the bytes
// before it, the error wraps the engine sentinel, and no line after it
// is read into p or written to the store.
func TestDeviceShortCountOnFailure(t *testing.T) {
	const lines, failing = 64, 5 // global line 5: rank 1, inner line 1
	old := func(line int) []byte { return fillLine(byte(line)) }
	setup := func(t *testing.T) (*Array, *Device) {
		a := newArray(t, lines, 4)
		d, err := NewDevice(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < lines; i++ {
			if err := a.Write(uint64(i), old(i)); err != nil {
				t.Fatal(err)
			}
		}
		return a, d
	}

	t.Run("ReadAt", func(t *testing.T) {
		a, d := setup(t)
		corruptTwoChips(a.Rank(1), 1)
		buf := bytes.Repeat([]byte{0xEE}, 8*LineSize)
		n, err := d.ReadAt(buf, 0)
		if n != failing*LineSize || !errors.Is(err, ErrAttack) {
			t.Fatalf("ReadAt over lines 0..7 = (%d, %v), want (%d, ErrAttack)", n, err, failing*LineSize)
		}
		for i := 0; i < failing; i++ {
			if !bytes.Equal(buf[i*LineSize:(i+1)*LineSize], old(i)) {
				t.Fatalf("line %d before the failure read back wrong", i)
			}
		}
		if !bytes.Equal(buf[(failing+1)*LineSize:], bytes.Repeat([]byte{0xEE}, 2*LineSize)) {
			t.Fatal("lines after the failing one were read into p")
		}
	})

	t.Run("WriteAt", func(t *testing.T) {
		a, d := setup(t)
		// A two-chip fault on rank 1's counter line fails every write that
		// walks it; lines 2..4 sit on the other ranks and precede it.
		m := a.Rank(1)
		if err := m.FlushNodeCache(); err != nil {
			t.Fatal(err)
		}
		addr, _ := m.Layout().CounterAddr(1)
		m.Module().InjectTransient(addr, 2, [8]byte{1})
		m.Module().InjectTransient(addr, 5, [8]byte{2})
		const first = 2
		src := bytes.Repeat([]byte{0x77}, 8*LineSize)
		n, err := d.WriteAt(src, first*LineSize)
		if n != (failing-first)*LineSize || !errors.Is(err, ErrAttack) {
			t.Fatalf("WriteAt over lines 2..9 = (%d, %v), want (%d, ErrAttack)", n, err, (failing-first)*LineSize)
		}
		buf := make([]byte, LineSize)
		for i := first; i < first+8; i++ {
			if i%4 == 1 {
				continue // rank 1: its counter line is gone
			}
			if _, err := a.Read(uint64(i), buf); err != nil {
				t.Fatalf("read line %d: %v", i, err)
			}
			want := old(i)
			if i < failing {
				want = src[:LineSize]
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("line %d: written=%v, want written=%v", i, !bytes.Equal(buf, old(i)), i < failing)
			}
		}
	})
}
