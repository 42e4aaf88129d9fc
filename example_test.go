package synergy_test

import (
	"fmt"
	"log"

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
