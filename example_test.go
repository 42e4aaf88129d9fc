package synergy_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"synergy"
)

// The basic lifecycle: create a protected memory, write, read, and
// survive a chip error.
func Example() {
	mem, err := synergy.New(synergy.Config{DataLines: 64})
	if err != nil {
		log.Fatal(err)
	}

	line := make([]byte, synergy.LineSize)
	copy(line, []byte("secret"))
	if err := mem.Write(3, line); err != nil {
		log.Fatal(err)
	}

	// A DRAM chip corrupts its slice of the line. (Raw hardware access
	// goes through the rank; a default Array has one.)
	rank := mem.Rank(0)
	rank.Module().InjectTransient(rank.Layout().DataAddr(3), 5, [8]byte{0xFF})

	buf := make([]byte, synergy.LineSize)
	info, err := mem.Read(3, buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("data: %q\n", buf[:6])
	fmt.Printf("corrected: %v, faulty chip: %d\n", info.Corrected, info.FaultyChips[0])
	// Output:
	// data: "secret"
	// corrected: true, faulty chip: 5
}

// Multi-rank arrays tolerate one failed chip in every rank at once and
// serve different ranks in parallel; a batch spans ranks line by line.
func ExampleNew_multiRank() {
	arr, err := synergy.New(synergy.Config{DataLines: 256, Ranks: 4})
	if err != nil {
		log.Fatal(err)
	}
	lines := []uint64{10, 11, 12, 13} // one line per rank
	src := make([]byte, len(lines)*synergy.LineSize)
	copy(src, []byte("rank-striped"))
	if err := arr.WriteBatch(lines, src); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, len(lines)*synergy.LineSize)
	if _, err := arr.ReadBatch(lines, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%q across %d ranks\n", buf[:12], arr.Ranks())
	// Output:
	// "rank-striped" across 4 ranks
}

// NewDevice exposes the secure memory as byte-addressable block I/O.
func ExampleNewDevice() {
	mem, err := synergy.New(synergy.Config{DataLines: 16})
	if err != nil {
		log.Fatal(err)
	}
	dev, err := synergy.NewDevice(mem)
	if err != nil {
		log.Fatal(err)
	}
	// Unaligned writes read-modify-write whole cachelines under full
	// integrity protection.
	if _, err := dev.WriteAt([]byte("hello, block device"), 100); err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 19)
	if _, err := dev.ReadAt(buf, 100); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (%d bytes total)\n", buf, dev.Size())
	// Output:
	// hello, block device (1024 bytes total)
}

// SimulateReliability reproduces the Fig. 11 comparison.
func ExampleSimulateReliability() {
	secded, err := synergy.SimulateReliability(synergy.PolicySECDED, 100_000)
	if err != nil {
		log.Fatal(err)
	}
	syn, err := synergy.SimulateReliability(synergy.PolicySynergy, 100_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Synergy at least 50x below SECDED: %v\n",
		secded.Probability > 50*syn.Probability)
	// Output:
	// Synergy at least 50x below SECDED: true
}

// correctionLog prints each corrected chip as the engine reports it.
type correctionLog struct{ synergy.TelemetryBaseSink }

func (correctionLog) OnCorrection(e synergy.CorrectionEvent) {
	fmt.Printf("corrected rank %d chip %d (%s)\n", e.Rank, e.Chip, e.Region)
}

// A telemetry registry streams engine events to a sink as they happen
// and keeps the per-stage read latencies that ServeMetrics exports.
// TelemetrySampleEvery(1) times every read instead of the default 1 in
// 64, so even a short run fills the stage histograms.
func ExampleNewTelemetry() {
	reg := synergy.NewTelemetry(synergy.TelemetrySampleEvery(1))
	reg.Attach(correctionLog{})
	mem, err := synergy.New(synergy.Config{DataLines: 64, Telemetry: reg})
	if err != nil {
		log.Fatal(err)
	}
	line := make([]byte, synergy.LineSize)
	for i := uint64(0); i < 8; i++ {
		if err := mem.Write(i, line); err != nil {
			log.Fatal(err)
		}
	}
	rank := mem.Rank(0)
	rank.Module().InjectTransient(rank.Layout().DataAddr(4), 2, [8]byte{0x80})
	for i := uint64(0); i < 8; i++ {
		if _, err := mem.Read(i, line); err != nil {
			log.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	var timed []string
	for name, st := range snap.Stages {
		if st.Count > 0 {
			timed = append(timed, fmt.Sprintf("%s=%d", name, st.Count))
		}
	}
	sort.Strings(timed)
	fmt.Printf("reads %d, corrections on chip 2: %d\n", snap.Ops["read"].Count, snap.Ranks[0].Corrections[2])
	fmt.Printf("stages timed: %v\n", timed)
	// Output:
	// corrected rank 0 chip 2 (data)
	// reads 8, corrections on chip 2: 1
	// stages timed: [counter_fetch=17 mac_verify=8 meta_update=8 otp=16 reconstruct=1 tree_walk=1]
}

// NewFileStore keeps a sealed checkpoint in one file; Restore boots an
// Array from it, re-verifying every byte under the same keys.
func ExampleNewFileStore() {
	dir, err := os.MkdirTemp("", "synergy-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store := synergy.NewFileStore(filepath.Join(dir, "array.snap"))

	cfg := synergy.Config{DataLines: 64, Ranks: 2}
	arr, err := synergy.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	line := make([]byte, synergy.LineSize)
	copy(line, "checkpointed")
	if err := arr.Write(9, line); err != nil {
		log.Fatal(err)
	}
	if err := arr.Snapshot(context.Background(), store); err != nil {
		log.Fatal(err)
	}

	restored, err := synergy.Restore(cfg, store)
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, synergy.LineSize)
	if _, err := restored.Read(9, buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%q\n", buf[:12])
	// Output:
	// "checkpointed"
}
