package main

import (
	"math"
	"math/rand/v2"
	"testing"
)

// series is n slice times around base with 1 % gaussian jitter: what an
// undisturbed host produces.
func series(rng *rand.Rand, n int, base float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base * (1 + 0.01*rng.NormFloat64())
	}
	return xs
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.625, 3.5}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

// Interference only adds time. Bursts of +20 % to +200 % on 60 % of the
// slices must leave the quiet decile where it was, while the mean and
// the median — the figures PR 11 reported — move with the neighbours.
func TestQuietDecileIgnoresBurstNoise(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	clean := series(rng, 1500, 1000)
	noisy := append([]float64(nil), clean...)
	for i := range noisy {
		if rng.Float64() < 0.60 {
			noisy[i] *= 1.2 + 1.8*rng.Float64()
		}
	}
	if moved := math.Abs(quietDecile(noisy)/quietDecile(clean) - 1); moved >= 0.02 {
		t.Errorf("quiet decile moved %.2f%% under burst noise, want < 2%%", 100*moved)
	}
	if moved := median(noisy)/median(clean) - 1; moved < 0.10 {
		t.Errorf("median moved only %.2f%%: the noise model is too gentle to prove anything", 100*moved)
	}
	if r := noiseRatio(clean); r > 1.03 {
		t.Errorf("noise ratio of a quiet run = %.3f, want ≈ 1", r)
	}
	if r := noiseRatio(noisy); r < 1.10 {
		t.Errorf("noise ratio of a disturbed run = %.3f: the disturbance is not visible", r)
	}
}

// A real slowdown reaches every slice, and the estimator must report
// all of it.
func TestQuietDecileTracksSlowdown(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	before := series(rng, 1500, 1000)
	after := make([]float64, len(before))
	for i, x := range before {
		after[i] = 1.10 * x
	}
	if moved := 100 * (quietDecile(after)/quietDecile(before) - 1); moved < 9 || moved > 11 {
		t.Errorf("quiet decile moved %.2f%% for a 10%% slowdown, want 10 ± 1", moved)
	}
}

func TestP99CarriesItsSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	v, n := p99(xs)
	if n != 1000 || math.Abs(v-989.01) > 1e-9 {
		t.Errorf("p99 = %v over %d samples, want 989.01 over 1000", v, n)
	}
}
