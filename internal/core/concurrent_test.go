package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Batch semantics, single-threaded first: ordering, duplicates,
// batches crossing ranks, and the error taxonomy.

func TestArrayBatchRoundTrip(t *testing.T) {
	a := newArray(t, 256, 4)
	// Deliberately unordered, rank-crossing, with a duplicate read.
	wl := []uint64{200, 3, 7, 150, 42, 1, 99, 250}
	src := make([]byte, len(wl)*LineSize)
	for k := range wl {
		copy(src[k*LineSize:], fillLine(byte(wl[k])))
	}
	if err := a.WriteBatch(wl, src); err != nil {
		t.Fatal(err)
	}
	rl := append(append([]uint64(nil), wl...), 42) // duplicate
	dst := make([]byte, len(rl)*LineSize)
	infos, err := a.ReadBatch(rl, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(rl) {
		t.Fatalf("infos = %d, want %d", len(infos), len(rl))
	}
	for k, line := range rl {
		if !bytes.Equal(dst[k*LineSize:(k+1)*LineSize], fillLine(byte(line))) {
			t.Fatalf("batch slot %d (line %d) wrong data", k, line)
		}
	}
	// A duplicated write is written once per copy, in caller order: the
	// last copy wins.
	dup := append(bytes.Clone(src[:LineSize]), fillLine(0xD5)...)
	if err := a.WriteBatch([]uint64{wl[0], wl[0]}, dup); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read(wl[0], dst[:LineSize]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst[:LineSize], fillLine(0xD5)) {
		t.Fatal("duplicated batch write: the last copy did not win")
	}
}

func TestBatchErrorTaxonomy(t *testing.T) {
	a := newArray(t, 64, 2)
	buf := make([]byte, 2*LineSize)
	if _, err := a.ReadBatch([]uint64{0, 64}, buf); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range batch read: %v", err)
	}
	if err := a.WriteBatch([]uint64{0}, buf); !errors.Is(err, ErrBadLineSize) {
		t.Fatalf("misized batch write: %v", err)
	}
}

// A batch that hits a tampered line fails closed and says which rank.
func TestArrayBatchSurfacesAttack(t *testing.T) {
	a := newArray(t, 64, 2)
	lines := []uint64{0, 1, 2, 3}
	src := make([]byte, len(lines)*LineSize)
	if err := a.WriteBatch(lines, src); err != nil {
		t.Fatal(err)
	}
	// Two-chip corruption on global line 1 (rank 1, inner 0).
	m := a.Rank(1)
	addr := m.Layout().DataAddr(0)
	m.Module().InjectTransient(addr, 2, [8]byte{1})
	m.Module().InjectTransient(addr, 7, [8]byte{2})
	if _, err := a.ReadBatch(lines, make([]byte, len(src))); !errors.Is(err, ErrAttack) {
		t.Fatalf("batch over tampered line: %v, want wrapped ErrAttack", err)
	}
}

// The concurrent stress test the redesign exists for: mixed
// Read/Write/ReadBatch/WriteBatch/Scrub traffic from many goroutines
// against a 4-rank Array, with content verification and zero tolerance
// for false ErrAttack. Run it under -race.
func TestArrayConcurrentStress(t *testing.T) {
	const (
		ranks = 4
		lines = 128
		G     = 8 // line i is owned by goroutine i%G — disjoint write sets
		iters = 12
	)
	a, err := NewArray(Config{DataLines: lines, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}

	pattern := func(i uint64, iter int) []byte {
		return fillLine(byte(i)*3 ^ byte(iter)*89)
	}

	errCh := make(chan error, G+4)
	var wg sync.WaitGroup

	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var owned []uint64
			for i := uint64(id); i < lines; i += G {
				owned = append(owned, i)
			}
			buf := make([]byte, LineSize)
			batch := make([]byte, len(owned)*LineSize)
			for iter := 0; iter < iters; iter++ {
				if id%2 == 0 {
					// Batched writer: one WriteBatch across all four
					// ranks, then a batched read-back.
					for k, i := range owned {
						copy(batch[k*LineSize:], pattern(i, iter))
					}
					if err := a.WriteBatch(owned, batch); err != nil {
						errCh <- fmt.Errorf("goroutine %d iter %d: WriteBatch: %w", id, iter, err)
						return
					}
					got := make([]byte, len(batch))
					if _, err := a.ReadBatch(owned, got); err != nil {
						errCh <- fmt.Errorf("goroutine %d iter %d: ReadBatch: %w", id, iter, err)
						return
					}
					if !bytes.Equal(got, batch) {
						errCh <- fmt.Errorf("goroutine %d iter %d: batched read-back mismatch", id, iter)
						return
					}
					continue
				}
				// Line-at-a-time writer.
				for _, i := range owned {
					want := pattern(i, iter)
					if err := a.Write(i, want); err != nil {
						errCh <- fmt.Errorf("goroutine %d iter %d: Write(%d): %w", id, iter, i, err)
						return
					}
					if _, err := a.Read(i, buf); err != nil {
						errCh <- fmt.Errorf("goroutine %d iter %d: Read(%d): %w", id, iter, i, err)
						return
					}
					if !bytes.Equal(buf, want) {
						errCh <- fmt.Errorf("goroutine %d iter %d: line %d read-back mismatch", id, iter, i)
						return
					}
				}
			}
		}(g)
	}

	// Background scrubber: full-array passes concurrent with the
	// writers. No faults are injected, so any ErrAttack is a false
	// positive (torn engine state) and fails the test.
	stop := make(chan struct{})
	var scrubWG sync.WaitGroup
	scrubWG.Add(1)
	go func() {
		defer scrubWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := a.Scrub(context.Background()); err != nil {
				errCh <- fmt.Errorf("concurrent scrub: %w", err)
				return
			}
		}
	}()

	// Background observers: aggregate stats, scoreboard, DoS analysis.
	scrubWG.Add(1)
	go func() {
		defer scrubWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := a.Stats()
			if s.AttacksDeclared != 0 {
				errCh <- fmt.Errorf("attack declared under clean concurrent load: %+v", s)
				return
			}
			for r := 0; r < ranks; r++ {
				m := a.Rank(r)
				if bad := m.KnownBadChip(); bad != -1 {
					errCh <- fmt.Errorf("rank %d condemned chip %d with no faults", r, bad)
					return
				}
				m.ErrorLog().Analyze(s.Reads + s.Writes)
			}
		}
	}()

	wg.Wait()
	close(stop)
	scrubWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Quiesced: every line holds its owner's final pattern, and no
	// correction machinery ever fired.
	buf := make([]byte, LineSize)
	for i := uint64(0); i < lines; i++ {
		if _, err := a.Read(i, buf); err != nil {
			t.Fatalf("final read %d: %v", i, err)
		}
		if !bytes.Equal(buf, pattern(i, iters-1)) {
			t.Fatalf("final contents of line %d wrong", i)
		}
	}
	s := a.Stats()
	if s.CorrectionEvents != 0 || s.MismatchesSeen != 0 || s.AttacksDeclared != 0 {
		t.Fatalf("phantom corrections under concurrency: %+v", s)
	}
}

// Reads race foreground Scrub passes while a whole-chip permanent
// fault is live on every rank — the degraded-mode contract under
// concurrency. The outcomes are deterministic up to poison timing:
// every read returns either the exact sealed contents (single-chip
// reconstruction) or fails closed (a racing scrub may poison a
// parity-residual line first); wrong data is never tolerated. After
// RepairChip the array serves every line again with zero further
// corrections. Run under -race.
func TestConcurrentScrubUnderPermanentFault(t *testing.T) {
	const (
		ranks = 2
		lines = 96
		G     = 4
		iters = 6
		chip  = 3
	)
	a := newArray(t, lines, ranks)
	pattern := func(i uint64) []byte { return fillLine(byte(i)*5 + 1) }
	for i := uint64(0); i < lines; i++ {
		if err := a.Write(i, pattern(i)); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < ranks; r++ {
		m := a.Rank(r)
		if _, err := m.InjectPermanent(chip, 0, m.Module().Lines()-1, [8]byte{0x3C}); err != nil {
			t.Fatal(err)
		}
	}

	errCh := make(chan error, G+1)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			buf := make([]byte, LineSize)
			for iter := 0; iter < iters; iter++ {
				for i := uint64(id); i < lines; i += G {
					_, err := a.Read(i, buf)
					switch {
					case err == nil:
						if !bytes.Equal(buf, pattern(i)) {
							errCh <- fmt.Errorf("SDC: reader %d line %d wrong data under fault", id, i)
							return
						}
					case IsFailClosed(err):
						// Poisoned or declared: data withheld, fine.
					default:
						errCh <- fmt.Errorf("reader %d line %d failed open: %w", id, i, err)
						return
					}
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	var scrubWG sync.WaitGroup
	scrubWG.Add(1)
	go func() {
		defer scrubWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Uncorrectables poison and are reported — never abort the
			// pass, never error.
			if _, err := a.Scrub(context.Background()); err != nil {
				errCh <- fmt.Errorf("scrub under permanent fault: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrubWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Chip replacement: RepairChip clears the fault, re-verifies every
	// line, heals any poison, and resets the scoreboard.
	for r := 0; r < ranks; r++ {
		if err := a.RepairChip(r, chip); err != nil {
			t.Fatalf("RepairChip(%d, %d): %v", r, chip, err)
		}
	}
	if p := a.Poisoned(); len(p) != 0 {
		t.Fatalf("poisoned after repair: %v", p)
	}
	base := a.Stats()
	buf := make([]byte, LineSize)
	for i := uint64(0); i < lines; i++ {
		if _, err := a.Read(i, buf); err != nil {
			t.Fatalf("post-repair read %d: %v", i, err)
		}
		if !bytes.Equal(buf, pattern(i)) {
			t.Fatalf("post-repair contents of line %d wrong", i)
		}
	}
	s := a.Stats()
	if s.CorrectionEvents != base.CorrectionEvents {
		t.Fatalf("post-repair reads still correcting: %d new events", s.CorrectionEvents-base.CorrectionEvents)
	}
	for r := 0; r < ranks; r++ {
		m := a.Rank(r)
		if bad := m.KnownBadChip(); bad != -1 {
			t.Fatalf("rank %d scoreboard not reset: chip %d", r, bad)
		}
		if lt, ce := m.ErrorLog().Total(), m.Stats().CorrectionEvents; lt != ce {
			t.Fatalf("rank %d error log total %d != correction events %d", r, lt, ce)
		}
	}
}

// Device I/O from many goroutines over disjoint byte ranges, exercising
// the batched aligned-span path and the RMW path concurrently.
func TestDeviceConcurrentIO(t *testing.T) {
	const G = 6
	a := newArray(t, 192, 4)
	d, err := NewDevice(a)
	if err != nil {
		t.Fatal(err)
	}
	chunk := d.Size() / G
	var wg sync.WaitGroup
	errCh := make(chan error, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			base := int64(id) * chunk
			// Offset by id so some goroutines are line-aligned (batch
			// path) and others straddle lines (RMW path).
			off := base + int64(id*13)
			size := int(chunk) - id*13
			data := bytes.Repeat([]byte{byte(0x30 + id)}, size)
			if _, err := d.WriteAt(data, off); err != nil {
				errCh <- fmt.Errorf("device writer %d: %w", id, err)
				return
			}
			got := make([]byte, size)
			if _, err := d.ReadAt(got, off); err != nil {
				errCh <- fmt.Errorf("device reader %d: %w", id, err)
				return
			}
			if !bytes.Equal(got, data) {
				errCh <- fmt.Errorf("device %d: round trip mismatch", id)
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
