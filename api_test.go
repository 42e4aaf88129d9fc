package synergy_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"synergy"
)

// These tests exercise only the public facade — what a downstream
// importer of the library sees.

func TestPublicMemoryRoundTrip(t *testing.T) {
	mem, err := synergy.New(synergy.Config{DataLines: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0x42}, synergy.LineSize)
	if err := mem.Write(5, want); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, synergy.LineSize)
	info, err := mem.Read(5, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) || info.Corrected {
		t.Fatal("public round trip failed")
	}
}

func TestPublicMultiRankAndBatch(t *testing.T) {
	arr, err := synergy.New(synergy.Config{DataLines: 64, Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if arr.Ranks() != 4 {
		t.Fatalf("Ranks = %d, want 4", arr.Ranks())
	}
	lines := []uint64{3, 17, 42, 8}
	src := bytes.Repeat([]byte{0xA5}, len(lines)*synergy.LineSize)
	if err := arr.WriteBatch(lines, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if _, err := arr.ReadBatch(lines, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("batched round trip failed")
	}

	// Write-back metadata cache through the facade: writes land, Flush
	// and Sync both report clean, and reads stay coherent throughout.
	wb, err := synergy.New(synergy.Config{DataLines: 64, Ranks: 2, MetadataCache: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.WriteBatch(lines, src); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := wb.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if _, err := wb.ReadBatch(lines, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("write-back round trip failed")
	}
}

func TestPublicErrorTaxonomy(t *testing.T) {
	arr, err := synergy.New(synergy.Config{DataLines: 32, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, synergy.LineSize)
	if _, err := arr.Read(99, buf); !errors.Is(err, synergy.ErrOutOfRange) {
		t.Fatalf("out-of-range read: %v, want wrapped ErrOutOfRange", err)
	}
	if err := arr.Write(99, buf); !errors.Is(err, synergy.ErrOutOfRange) {
		t.Fatalf("out-of-range write: %v, want wrapped ErrOutOfRange", err)
	}
	if _, err := arr.Read(0, buf[:10]); !errors.Is(err, synergy.ErrBadLineSize) {
		t.Fatalf("short buffer read: %v, want wrapped ErrBadLineSize", err)
	}
	if _, err := arr.ReadBatch([]uint64{0, 1}, buf); !errors.Is(err, synergy.ErrBadLineSize) {
		t.Fatalf("short batch buffer: %v, want wrapped ErrBadLineSize", err)
	}
	if err := arr.WriteBatch([]uint64{0, 99}, make([]byte, 2*synergy.LineSize)); !errors.Is(err, synergy.ErrOutOfRange) {
		t.Fatalf("out-of-range batch write: %v, want wrapped ErrOutOfRange", err)
	}
}

func TestPublicCorrectionAndAttack(t *testing.T) {
	mem, err := synergy.New(synergy.Config{DataLines: 64})
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{7}, synergy.LineSize)
	mem.Write(9, want)
	rank := mem.Rank(0)
	addr := rank.Layout().DataAddr(9)
	rank.Module().InjectTransient(addr, 4, [8]byte{0xFF})
	buf := make([]byte, synergy.LineSize)
	info, err := mem.Read(9, buf)
	if err != nil || !info.Corrected || !bytes.Equal(buf, want) {
		t.Fatalf("correction through facade failed: %v %+v", err, info)
	}
	// Two-chip corruption fails closed with the public sentinel error.
	rank.Module().InjectTransient(addr, 1, [8]byte{1})
	rank.Module().InjectTransient(addr, 6, [8]byte{2})
	if _, err := mem.Read(9, buf); !errors.Is(err, synergy.ErrAttack) {
		t.Fatalf("err = %v, want synergy.ErrAttack", err)
	}
}

// Restore through the facade: a checkpoint taken with Array.Snapshot
// boots back byte-identical, a line poisoned before the checkpoint
// still fails closed, and a damaged or empty store yields no array.
func TestPublicSnapshotRestore(t *testing.T) {
	cfg := synergy.Config{DataLines: 64, Ranks: 2}
	arr, err := synergy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	line := func(i uint64) []byte { return bytes.Repeat([]byte{byte(i*5 + 1)}, synergy.LineSize) }
	for i := uint64(0); i < 64; i++ {
		if err := arr.Write(i, line(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Global line 9 lives on rank 1 as its line 4; a two-chip fault
	// poisons it.
	const victim = 9
	rank := arr.Rank(1)
	faults := []synergy.ChipFault{{Chip: 1, Mask: [8]byte{1}}, {Chip: 6, Mask: [8]byte{2}}}
	if err := rank.InjectTransients(rank.Layout().DataAddr(victim/2), faults); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, synergy.LineSize)
	if _, err := arr.Read(victim, buf); !synergy.IsFailClosed(err) {
		t.Fatalf("two-chip read: %v, want fail-closed", err)
	}
	store := synergy.NewMemStore()
	if err := arr.Snapshot(context.Background(), store); err != nil {
		t.Fatal(err)
	}

	restored, err := synergy.Restore(cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i++ {
		_, err := restored.Read(i, buf)
		if i == victim {
			if !errors.Is(err, synergy.ErrPoisoned) {
				t.Fatalf("restored poisoned line: %v, want ErrPoisoned", err)
			}
			continue
		}
		if err != nil || !bytes.Equal(buf, line(i)) {
			t.Fatalf("restored line %d: err %v, bytes equal %v", i, err, bytes.Equal(buf, line(i)))
		}
	}

	img, ok := store.Bytes()
	if !ok {
		t.Fatal("store holds no committed snapshot")
	}
	img[len(img)/2] ^= 0x01
	flipped := synergy.NewMemStore()
	flipped.SetBytes(img)
	if got, err := synergy.Restore(cfg, flipped); !errors.Is(err, synergy.ErrSnapshotCorrupt) || got != nil {
		t.Fatalf("one flipped byte: array %v, err %v; want nil, ErrSnapshotCorrupt", got, err)
	}
	if got, err := synergy.Restore(cfg, synergy.NewMemStore()); !errors.Is(err, synergy.ErrNoSnapshot) || got != nil {
		t.Fatalf("empty store: array %v, err %v; want nil, ErrNoSnapshot", got, err)
	}
}

func TestPublicReliability(t *testing.T) {
	secded, err := synergy.SimulateReliability(synergy.PolicySECDED, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := synergy.SimulateReliability(synergy.PolicySynergy, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if !(secded.Probability > syn.Probability) {
		t.Fatalf("SECDED %.3e not above Synergy %.3e", secded.Probability, syn.Probability)
	}
}

func TestPublicExperiment(t *testing.T) {
	var calls, lastTotal int
	res, err := synergy.RunExperiment(synergy.Figure13,
		synergy.WithInstructionBudget(100_000),
		synergy.WithProgress(func(completed, total int) { calls, lastTotal = completed, total }))
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "fig13" || res.Table == "" {
		t.Fatalf("experiment result: %+v", res)
	}
	if res.Summary["monolithic"] <= 1.0 {
		t.Fatalf("Synergy speedup %.3f through facade", res.Summary["monolithic"])
	}
	if calls == 0 || calls != lastTotal {
		t.Fatalf("progress callback saw %d/%d, want a complete sweep", calls, lastTotal)
	}
	if _, err := synergy.RunExperiment("fig99"); !errors.Is(err, synergy.ErrUnknownExperiment) {
		t.Fatalf("unknown experiment: %v, want wrapped ErrUnknownExperiment", err)
	}
}
