package synergy_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"synergy"
)

// BenchmarkConcurrentThroughput measures served lines/sec under
// concurrent clients, in the two regimes the engine scales along:
//
//   - single-rank: every client hammers ONE rank with a read-heavy mix
//     (1 write per 64 operations). Before the shared-lock optimistic
//     read path this was flat — the rank's exclusive mutex serialized
//     all readers; now clean cache-hit reads run under RLock and
//     throughput scales with cores. One goroutine per GOMAXPROCS
//     worker, so a `-cpu 1,2,4,8` sweep (scripts/bench.sh emits it as
//     BENCH_concurrency.json) is the cores-vs-throughput curve.
//
//   - multi-rank: goroutine w is pinned to rank w%4 of a 4-rank Array,
//     so at 4 goroutines each rank's lock is uncontended and the
//     speedup over 1 goroutine is the rank-parallelism the sharded
//     router realizes (given ≥4 CPUs; on fewer cores the CPU-bound MAC
//     and AES work serializes regardless of locking).
func BenchmarkConcurrentThroughput(b *testing.B) {
	b.Run("single-rank-readheavy", func(b *testing.B) {
		// One rank, hot working set small enough that every counter
		// leaf stays resident in the metadata cache: the steady state
		// is the fast path, with the occasional write forcing real
		// escalation and generation traffic.
		const dataLines = 1024
		const hotLines = 256
		mem, err := synergy.New(synergy.Config{DataLines: dataLines, MetadataCache: 512})
		if err != nil {
			b.Fatal(err)
		}
		line := make([]byte, synergy.LineSize)
		for i := uint64(0); i < dataLines; i++ {
			if err := mem.Write(i, line); err != nil {
				b.Fatal(err)
			}
		}
		buf := make([]byte, synergy.LineSize)
		for i := uint64(0); i < hotLines; i++ {
			if _, err := mem.Read(i, buf); err != nil { // warm the cache
				b.Fatal(err)
			}
		}
		var seq atomic.Uint64
		b.SetBytes(synergy.LineSize)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			buf := make([]byte, synergy.LineSize)
			// Cheap per-goroutine xorshift stream; seeded off a shared
			// counter so workers walk different lines.
			x := seq.Add(0x9E3779B97F4A7C15)
			for pb.Next() {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				i := x % hotLines
				if x&63 == 0 {
					if err := mem.Write(i, buf); err != nil {
						b.Error(err)
						return
					}
					continue
				}
				if _, err := mem.Read(i, buf); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lines/sec")
	})

	b.Run("multi-rank", func(b *testing.B) {
		const ranks = 4
		const dataLines = 1024
		for _, g := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("goroutines-%d", g), func(b *testing.B) {
				arr, err := synergy.New(synergy.Config{DataLines: dataLines, Ranks: ranks})
				if err != nil {
					b.Fatal(err)
				}
				// Touch every line once so reads run against written state.
				line := make([]byte, synergy.LineSize)
				for i := uint64(0); i < dataLines; i++ {
					if err := arr.Write(i, line); err != nil {
						b.Fatal(err)
					}
				}
				per := (b.N + g - 1) / g
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						buf := make([]byte, synergy.LineSize)
						// Lines ≡ w (mod ranks) stay on one rank: disjoint
						// goroutines hit disjoint locks.
						i := uint64(w % ranks)
						for k := 0; k < per; k++ {
							if _, err := arr.Read(i, buf); err != nil {
								b.Error(err)
								return
							}
							i += ranks
							if i >= dataLines {
								i = uint64(w % ranks)
							}
						}
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				lines := float64(g) * float64(per)
				b.ReportMetric(lines/b.Elapsed().Seconds(), "lines/sec")
			})
		}
	})
}

// BenchmarkBatchedThroughput compares line-at-a-time against batched
// reads from a single client: a batched read serves each line as Read
// does, so the batch variant saves only per-call routing, not locking.
func BenchmarkBatchedThroughput(b *testing.B) {
	const ranks = 4
	const dataLines = 1024
	const batch = 64
	arr, err := synergy.New(synergy.Config{DataLines: dataLines, Ranks: ranks})
	if err != nil {
		b.Fatal(err)
	}
	line := make([]byte, synergy.LineSize)
	for i := uint64(0); i < dataLines; i++ {
		if err := arr.Write(i, line); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("single", func(b *testing.B) {
		buf := make([]byte, synergy.LineSize)
		for k := 0; k < b.N; k++ {
			if _, err := arr.Read(uint64(k)%dataLines, buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lines/sec")
	})
	b.Run("batch-64", func(b *testing.B) {
		lines := make([]uint64, batch)
		buf := make([]byte, batch*synergy.LineSize)
		for k := 0; k < b.N; k += batch {
			for j := range lines {
				lines[j] = uint64(k+j) % dataLines
			}
			if _, err := arr.ReadBatch(lines, buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lines/sec")
	})
}
