package core

import (
	"errors"
	"testing"
)

// poisonGlobal makes global line g of a multi-rank array uncorrectable
// and reads it once so it is poisoned (fast-fail state).
func poisonGlobal(t *testing.T, arr *Array, g uint64) {
	t.Helper()
	m, inner, err := arr.route(g)
	if err != nil {
		t.Fatalf("route(%d): %v", g, err)
	}
	corruptTwoChips(m, inner)
	buf := make([]byte, LineSize)
	if _, err := arr.Read(g, buf); !errors.Is(err, ErrAttack) {
		t.Fatalf("poisoning read of line %d: err = %v, want ErrAttack", g, err)
	}
}

// A multi-rank ReadBatch with failures on several ranks must surface
// one *BatchError whose entries are in ascending batch-index order,
// carry global line addresses, and unwrap to the usual sentinels.
func TestBatchErrorMultiRankOrdering(t *testing.T) {
	arr, err := NewArray(Config{DataLines: 64, Ranks: 4})
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	buf := make([]byte, LineSize)
	for i := uint64(0); i < 64; i++ {
		buf[0] = byte(i)
		if err := arr.Write(i, buf); err != nil {
			t.Fatalf("Write(%d): %v", i, err)
		}
	}
	// Poison lines on three different ranks (line%4 is the rank):
	// rank 1 (lines 5, 13), rank 2 (line 10), rank 3 (line 7).
	for _, g := range []uint64{5, 10, 13, 7} {
		poisonGlobal(t, arr, g)
	}

	// Batch interleaves healthy and poisoned lines so the failing batch
	// indices are scattered across ranks, out of rank order.
	lines := []uint64{0, 13, 2, 10, 4, 5, 6, 7, 8}
	wantFailedIdx := []int{1, 3, 5, 7}
	dst := make([]byte, len(lines)*LineSize)
	_, err = arr.ReadBatch(lines, dst)
	if err == nil {
		t.Fatal("ReadBatch over poisoned lines returned nil error")
	}
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("errors.Is(err, ErrPoisoned) = false for %v", err)
	}

	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("errors.As(*BatchError) failed for %T: %v", err, err)
	}
	if len(be.Failed) != len(wantFailedIdx) {
		t.Fatalf("BatchError carries %d failures, want %d: %v", len(be.Failed), len(wantFailedIdx), be.Failed)
	}
	for k, le := range be.Failed {
		if le.Index != wantFailedIdx[k] {
			t.Fatalf("Failed[%d].Index = %d, want %d (ascending batch order): %v",
				k, le.Index, wantFailedIdx[k], be.Failed)
		}
		if le.Line != lines[le.Index] {
			t.Fatalf("Failed[%d].Line = %d, want global address %d", k, le.Line, lines[le.Index])
		}
		if !errors.Is(le.Err, ErrPoisoned) {
			t.Fatalf("Failed[%d].Err = %v, want ErrPoisoned", k, le.Err)
		}
	}

	// errors.As must also recover an individual LineError from the
	// batch error's unwrap tree.
	var le LineError
	if !errors.As(err, &le) {
		t.Fatalf("errors.As(LineError) failed for %v", err)
	}
	if le.Index != 1 || le.Line != 13 {
		t.Fatalf("extracted LineError = %+v, want the first failure (index 1, line 13)", le)
	}

	// Healthy indices must still have been served.
	for k, g := range lines {
		if k == 1 || k == 3 || k == 5 || k == 7 {
			continue
		}
		if got := dst[k*LineSize]; got != byte(g) {
			t.Fatalf("healthy batch index %d (line %d): dst[0] = %#x, want %#x", k, g, got, byte(g))
		}
	}
}

// The success path carries a nil *BatchError end to end: orNil on nil
// (and on an empty BatchError) is nil and allocates nothing.
func TestBatchErrorOrNilNoAlloc(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() {
		var be *BatchError
		if be.orNil() != nil {
			t.Fatal("nil *BatchError: orNil != nil")
		}
	}); allocs != 0 {
		t.Fatalf("nil orNil allocates %.1f/op, want 0", allocs)
	}
	empty := &BatchError{}
	if allocs := testing.AllocsPerRun(100, func() {
		if empty.orNil() != nil {
			t.Fatal("empty BatchError: orNil != nil")
		}
	}); allocs != 0 {
		t.Fatalf("empty orNil allocates %.1f/op, want 0", allocs)
	}
	// add on a nil receiver allocates the BatchError on first use.
	var be *BatchError
	be = be.add(2, 40, ErrPoisoned)
	if got := be.orNil(); got == nil {
		t.Fatal("orNil = nil after add")
	}
	if len(be.Failed) != 1 || be.Failed[0].Index != 2 || be.Failed[0].Line != 40 {
		t.Fatalf("add built %+v, want one failure at index 2 line 40", be.Failed)
	}
}

// The text of a batch failure is what a batch caller sees: one failure
// is named in full, several are counted with the first named.
func TestBatchErrorText(t *testing.T) {
	var be *BatchError
	be = be.add(2, 40, ErrPoisoned)
	want := "core: batch: 1 line failed: batch index 2 (line 40): " + ErrPoisoned.Error()
	if got := be.Error(); got != want {
		t.Errorf("one failure: %q, want %q", got, want)
	}
	be = be.add(5, 43, ErrAttack)
	want = "core: batch: 2 lines failed (first: batch index 2 (line 40): " + ErrPoisoned.Error() + ")"
	if got := be.Error(); got != want {
		t.Errorf("two failures: %q, want %q", got, want)
	}
}
