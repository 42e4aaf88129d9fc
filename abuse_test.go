package synergy_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"testing"

	"synergy"
)

// These tests throw hostile inputs at every public entry point and
// assert the facade degrades to errors — no panic escapes synergy.*.

// noPanic runs fn and converts any panic into a test failure naming the
// entry point, so one escaped panic doesn't abort the whole sweep.
func noPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s panicked: %v", name, r)
		}
	}()
	fn()
}

func TestAbuseConstructors(t *testing.T) {
	cases := []struct {
		name string
		cfg  synergy.Config
	}{
		{"zero config", synergy.Config{}},
		{"negative ranks", synergy.Config{DataLines: 16, Ranks: -3}},
		{"short enc key", synergy.Config{DataLines: 16, EncKey: []byte{1}}},
		{"short mac key", synergy.Config{DataLines: 16, MACKey: []byte{2, 3}}},
	}
	for _, tc := range cases {
		noPanic(t, "New/"+tc.name, func() {
			if _, err := synergy.New(tc.cfg); err == nil {
				t.Errorf("New(%s) accepted a bad config", tc.name)
			}
		})
	}
	noPanic(t, "New/more ranks than lines", func() {
		arr, err := synergy.New(synergy.Config{DataLines: 2, Ranks: 8})
		if err != nil {
			t.Errorf("New rejected ranks > lines: %v", err)
			return
		}
		buf := make([]byte, synergy.LineSize)
		if err := arr.Write(1, buf); err != nil {
			t.Errorf("write on sparse array: %v", err)
		}
	})
	noPanic(t, "NewDevice/nil store", func() {
		if _, err := synergy.NewDevice(nil); err == nil {
			t.Error("NewDevice accepted a nil array")
		}
	})
}

func TestAbuseLineIO(t *testing.T) {
	arr, err := synergy.New(synergy.Config{DataLines: 16, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	good := make([]byte, synergy.LineSize)

	noPanic(t, "Read/max line", func() {
		if _, err := arr.Read(math.MaxUint64, good); !errors.Is(err, synergy.ErrOutOfRange) {
			t.Errorf("Read(MaxUint64): %v", err)
		}
	})
	noPanic(t, "Write/max line", func() {
		if err := arr.Write(math.MaxUint64, good); !errors.Is(err, synergy.ErrOutOfRange) {
			t.Errorf("Write(MaxUint64): %v", err)
		}
	})
	noPanic(t, "Read/nil dst", func() {
		if _, err := arr.Read(0, nil); !errors.Is(err, synergy.ErrBadLineSize) {
			t.Errorf("Read(nil): %v", err)
		}
	})
	noPanic(t, "Read/oversized dst", func() {
		if _, err := arr.Read(0, make([]byte, synergy.LineSize+1)); !errors.Is(err, synergy.ErrBadLineSize) {
			t.Errorf("Read(oversized): %v", err)
		}
	})
	noPanic(t, "Write/short src", func() {
		if err := arr.Write(0, good[:7]); !errors.Is(err, synergy.ErrBadLineSize) {
			t.Errorf("Write(short): %v", err)
		}
	})
	noPanic(t, "ReadBatch/nil everything", func() {
		if _, err := arr.ReadBatch(nil, nil); err != nil {
			t.Errorf("empty batch: %v", err)
		}
	})
	noPanic(t, "ReadBatch/buffer mismatch", func() {
		if _, err := arr.ReadBatch([]uint64{0, 1, 2}, good); !errors.Is(err, synergy.ErrBadLineSize) {
			t.Errorf("ReadBatch(mismatch): %v", err)
		}
	})
	noPanic(t, "WriteBatch/out of range", func() {
		if err := arr.WriteBatch([]uint64{0, math.MaxUint64}, make([]byte, 2*synergy.LineSize)); !errors.Is(err, synergy.ErrOutOfRange) {
			t.Errorf("WriteBatch(oor): %v", err)
		}
	})
}

func TestAbuseMaintenanceSurface(t *testing.T) {
	arr, err := synergy.New(synergy.Config{DataLines: 16, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}

	noPanic(t, "Rank/hostile index", func() {
		if arr.Rank(-1) != nil || arr.Rank(2) != nil || arr.Rank(1<<30) != nil {
			t.Error("Rank returned a Memory for an out-of-range index")
		}
	})
	for _, rc := range [][2]int{{-1, 0}, {2, 0}, {0, -1}, {0, 9}, {1 << 20, 1 << 20}} {
		noPanic(t, "RepairChip/bad rank-chip", func() {
			if err := arr.RepairChip(rc[0], rc[1]); err == nil {
				t.Errorf("RepairChip(%d, %d) accepted", rc[0], rc[1])
			}
		})
	}

	rank := arr.Rank(0)
	noPanic(t, "InjectTransient/bad chip", func() {
		if err := rank.InjectTransient(0, 17, [8]byte{1}); err == nil {
			t.Error("InjectTransient accepted chip 17")
		}
	})
	noPanic(t, "InjectTransient/bad addr", func() {
		if err := rank.InjectTransient(math.MaxUint64, 0, [8]byte{1}); err == nil {
			t.Error("InjectTransient accepted an out-of-range address")
		}
	})
	noPanic(t, "InjectPermanent/inverted range", func() {
		if _, err := rank.InjectPermanent(3, 10, 2, [8]byte{1}); err == nil {
			t.Error("InjectPermanent accepted lo > hi")
		}
	})
	noPanic(t, "ClearFault/bogus id", func() {
		if err := rank.ClearFault(424242); err == nil {
			t.Error("ClearFault accepted an unknown fault id")
		}
	})
	noPanic(t, "Module.Slice/bad chip", func() {
		line, err := rank.Module().ReadLine(0)
		if err != nil {
			t.Errorf("ReadLine(0): %v", err)
			return
		}
		if line.Slice(-1) != nil || line.Slice(99) != nil {
			t.Error("Line.Slice returned data for a hostile chip index")
		}
	})

	noPanic(t, "Layout/hostile indices", func() {
		lay := rank.Layout()
		// Out-of-range lines map to an out-of-range module address,
		// which the module rejects — never a panic.
		addr := lay.DataAddr(math.MaxUint64)
		if err := rank.Module().InjectTransient(addr, 0, [8]byte{1}); err == nil {
			t.Error("out-of-range DataAddr was accepted by the module")
		}
		lay.CounterAddr(math.MaxUint64)
		lay.ParityAddr(math.MaxUint64)
		lay.TreeAddr(-1, 0)
		lay.TreeAddr(99, math.MaxUint64)
	})
	noPanic(t, "Scrub/cancelled ctx", func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := arr.Scrub(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("Scrub(cancelled): %v", err)
		}
	})
	noPanic(t, "StartScrubber/zero interval nil ctx", func() {
		s := arr.StartScrubber(nil, 0) //nolint:staticcheck // hostile input on purpose
		s.Stop()
		s.Stop() // double Stop is documented safe
	})
	noPanic(t, "ErrorLog/empty analyze", func() {
		rank.ErrorLog().Analyze(0)
	})
}

func TestAbuseDevice(t *testing.T) {
	arr, err := synergy.New(synergy.Config{DataLines: 8, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := synergy.NewDevice(arr)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3*synergy.LineSize)

	noPanic(t, "Device.ReadAt/negative offset", func() {
		if _, err := dev.ReadAt(buf, -1); err == nil {
			t.Error("ReadAt accepted a negative offset")
		}
	})
	noPanic(t, "Device.WriteAt/negative offset", func() {
		if _, err := dev.WriteAt(buf, -1); err == nil {
			t.Error("WriteAt accepted a negative offset")
		}
	})
	noPanic(t, "Device.ReadAt/past end", func() {
		if _, err := dev.ReadAt(buf, dev.Size()); err != io.EOF {
			t.Errorf("ReadAt(end): %v, want io.EOF", err)
		}
	})
	noPanic(t, "Device.ReadAt/straddles end", func() {
		n, err := dev.ReadAt(buf, dev.Size()-synergy.LineSize)
		if err != io.EOF || n != synergy.LineSize {
			t.Errorf("short read at end: n=%d err=%v", n, err)
		}
	})
	noPanic(t, "Device.WriteAt/past end", func() {
		if _, err := dev.WriteAt(buf, dev.Size()); err == nil {
			t.Error("WriteAt accepted an offset past the device end")
		}
	})
	noPanic(t, "Device.ReadAt/huge offset", func() {
		if _, err := dev.ReadAt(buf, math.MaxInt64-3); err == nil {
			t.Error("ReadAt accepted a near-MaxInt64 offset")
		}
	})
	noPanic(t, "Device/unaligned rmw", func() {
		msg := []byte("straddles two cachelines")
		if _, err := dev.WriteAt(msg, synergy.LineSize-5); err != nil {
			t.Errorf("unaligned WriteAt: %v", err)
			return
		}
		got := make([]byte, len(msg))
		if _, err := dev.ReadAt(got, synergy.LineSize-5); err != nil {
			t.Errorf("unaligned ReadAt: %v", err)
			return
		}
		if !bytes.Equal(got, msg) {
			t.Error("unaligned round trip corrupted data")
		}
	})
}

func TestIsFailClosed(t *testing.T) {
	arr, err := synergy.New(synergy.Config{DataLines: 16})
	if err != nil {
		t.Fatal(err)
	}
	line := bytes.Repeat([]byte{9}, synergy.LineSize)
	if err := arr.Write(3, line); err != nil {
		t.Fatal(err)
	}
	rank := arr.Rank(0)
	addr := rank.Layout().DataAddr(3)
	rank.Module().InjectTransient(addr, 1, [8]byte{1})
	rank.Module().InjectTransient(addr, 6, [8]byte{2})

	buf := make([]byte, synergy.LineSize)
	_, attackErr := arr.Read(3, buf)
	if !synergy.IsFailClosed(attackErr) || !errors.Is(attackErr, synergy.ErrAttack) {
		t.Fatalf("double corruption: %v, want fail-closed ErrAttack", attackErr)
	}
	_, poisonErr := arr.Read(3, buf)
	if !synergy.IsFailClosed(poisonErr) || !errors.Is(poisonErr, synergy.ErrPoisoned) {
		t.Fatalf("re-read of attacked line: %v, want fail-closed ErrPoisoned", poisonErr)
	}
	for _, err := range []error{nil, synergy.ErrOutOfRange, synergy.ErrBadLineSize, io.EOF} {
		if synergy.IsFailClosed(err) {
			t.Errorf("IsFailClosed(%v) = true", err)
		}
	}
}
