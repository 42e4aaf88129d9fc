// Concurrent serving demo: a 4-rank Synergy Array under parallel
// clients. Each rank is an independent protection domain with its own
// lock (paper §III-A, Table III), so the shard router serves requests
// to different ranks fully in parallel, and batched writes group lines
// by rank to pay one lock acquisition per rank per batch.
//
//	go run ./examples/concurrent
//	go run ./examples/concurrent -clients 8 -ops 20000
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"
	"sync"
	"time"

	"synergy"
)

func main() {
	clients := flag.Int("clients", 2*runtime.GOMAXPROCS(0), "concurrent client goroutines")
	ops := flag.Int("ops", 10_000, "total line reads per phase")
	flag.Parse()

	const ranks = 4
	const dataLines = 4096
	arr, err := synergy.New(synergy.Config{DataLines: dataLines, Ranks: ranks})
	if err != nil {
		log.Fatal(err)
	}

	// Populate with batched writes: one WriteBatch per 256-line chunk
	// spreads each chunk across all four ranks, one lock grab per rank.
	const chunk = 256
	src := make([]byte, chunk*synergy.LineSize)
	lines := make([]uint64, chunk)
	for base := uint64(0); base < dataLines; base += chunk {
		for k := range lines {
			lines[k] = base + uint64(k)
			src[k*synergy.LineSize] = byte(lines[k])
		}
		if err := arr.WriteBatch(lines, src); err != nil {
			log.Fatal(err)
		}
	}

	run := func(g int) float64 {
		per := *ops / g
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				buf := make([]byte, synergy.LineSize)
				// Pin each client to one rank (lines ≡ w mod ranks) so
				// rank locks shard instead of contend.
				i := uint64(w % ranks)
				for k := 0; k < per; k++ {
					if _, err := arr.Read(i, buf); err != nil {
						log.Fatal(err)
					}
					i += ranks
					if i >= dataLines {
						i = uint64(w % ranks)
					}
				}
			}(w)
		}
		wg.Wait()
		return float64(g*per) / time.Since(start).Seconds()
	}

	fmt.Printf("4-rank Array, %d protected lines, GOMAXPROCS=%d\n\n", dataLines, runtime.GOMAXPROCS(0))
	base := run(1)
	fmt.Printf("%8d client : %12.0f lines/sec\n", 1, base)
	for _, g := range []int{4, *clients} {
		if g <= 1 {
			continue
		}
		rate := run(g)
		fmt.Printf("%8d clients: %12.0f lines/sec (%.2fx)\n", g, rate, rate/base)
	}

	// A background scrub shares the array with foreground traffic: the
	// per-line rank locks interleave the two.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := arr.Scrub(context.Background()); err != nil {
			log.Fatal(err)
		}
	}()
	foreground := run(ranks)
	wg.Wait()
	fmt.Printf("\nwith concurrent full-array scrub: %12.0f lines/sec foreground\n", foreground)

	s := arr.Stats()
	fmt.Printf("\naggregate stats: %d reads, %d writes, %d corrections, %d attacks\n",
		s.Reads, s.Writes, s.CorrectionEvents, s.AttacksDeclared)
}
