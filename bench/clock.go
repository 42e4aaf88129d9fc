package main

import "time"

// The reference clock. The sizing host (a 2-vCPU cloud VM) switches its
// processor between clock states about 27 % apart, for seconds to
// minutes at a time: everything — this benchmark, a register-only loop —
// runs 27 % faster or slower, whole runs long. No quantile across slices
// removes that, because it is not interference added to some slices but
// the speed of all of them. So every slice is bracketed by two runs of a
// fixed chain of dependent register operations, whose duration is
// inversely proportional to the clock and to nothing else, and every
// time in the slice is converted to what it would have been at the
// reference clock: the one at which the chain runs at refIterNs per
// iteration. Reported times are therefore "ns at the reference clock";
// harness.clock_ratio says how the host's clock compared during the run
// and the harness.*_raw_ns figures are the unconverted ones. See
// README.md, "The reference clock".

const (
	// One run of the chain is refIters iterations, ~25 µs: long against
	// the timer, and short enough that most runs meet no interference.
	refIters = 10_000
	// refReps runs are made back to back and the fastest kept.
	// Interference can only lengthen a run, and a lengthened one would
	// make the slice next to it look quicker than it was.
	refReps = 5
	// refIterNs defines the reference clock. It sits between the two
	// states of the sizing host (2.14 and 2.73 ns per iteration), so
	// converted times read like that host's.
	refIterNs = 2.5
)

var refState uint64 = 88172645463325252

// refNs runs the reference chain and returns how long the fastest of
// its runs took. The chain touches no memory, so it neither suffers
// from nor disturbs the caches of the code measured next to it.
func refNs() float64 {
	x := refState
	best := time.Duration(1 << 62)
	for r := 0; r < refReps; r++ {
		t := time.Now()
		for i := 0; i < refIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x *= 0x9e3779b97f4a7c15
		}
		best = min(best, time.Since(t))
	}
	refState = x
	return float64(best)
}

// clockScale is the factor that converts a raw time, measured between
// two calls of refNs, to the reference clock.
func clockScale(before, after float64) float64 {
	return refIters * refIterNs / min(before, after)
}
