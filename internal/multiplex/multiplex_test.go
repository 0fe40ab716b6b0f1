package multiplex

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/counters"
)

// sliceObs builds a slice-granularity observation of samples×slices rows
// over n counters; value generates the per-slice delta for counter c at
// global slice index s.
func sliceObs(n, samples, slices int, value func(c, s int) float64) *counters.Observation {
	evs := make([]counters.Event, n)
	for i := range evs {
		evs[i] = counters.Event(string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	set := counters.NewSet(evs...)
	o := counters.NewObservation("synthetic", set)
	for s := 0; s < samples*slices; s++ {
		row := make([]float64, n)
		for c := 0; c < n; c++ {
			row[c] = value(c, s)
		}
		o.Append(row)
	}
	return o
}

func TestNoMultiplexingWhenEnoughCounters(t *testing.T) {
	truth := sliceObs(4, 3, 10, func(c, s int) float64 { return float64(c + 1) })
	got, err := Apply(truth, Config{PhysicalCounters: 8, SlicesPerSample: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("samples: %d", got.Len())
	}
	for _, row := range got.Samples {
		for c, v := range row {
			if v != float64(c+1)*10 {
				t.Fatalf("exact aggregation expected: %v", row)
			}
		}
	}
}

func TestSteadyWorkloadExtrapolatesExactly(t *testing.T) {
	// Perfectly steady per-slice rates extrapolate with zero error even
	// under heavy multiplexing.
	truth := sliceObs(12, 4, 24, func(c, s int) float64 { return 5 })
	got, err := Apply(truth, Config{PhysicalCounters: 4, SlicesPerSample: 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range got.Samples {
		for _, v := range row {
			if math.Abs(v-5*24) > 1e-9 {
				t.Fatalf("steady extrapolation should be exact: %v", row)
			}
		}
	}
}

func TestBurstyWorkloadIsNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bursty := func(c, s int) float64 {
		if rng.Float64() < 0.2 {
			return 40
		}
		return 1
	}
	truth := sliceObs(16, 30, 20, bursty)
	noisy, err := Apply(truth, Config{PhysicalCounters: 4, SlicesPerSample: 20})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Apply(truth, Config{PhysicalCounters: 16, SlicesPerSample: 20})
	if err != nil {
		t.Fatal(err)
	}
	if NoiseSummary(noisy) <= NoiseSummary(clean) {
		t.Fatalf("multiplexing should add noise: %g vs %g",
			NoiseSummary(noisy), NoiseSummary(clean))
	}
}

func TestNoiseGrowsWithCounters(t *testing.T) {
	// Figure 1c's shape: with fixed K, more active counters → more noise.
	mk := func(n int) float64 {
		rng := rand.New(rand.NewSource(7))
		truth := sliceObs(n, 40, 20, func(c, s int) float64 {
			if rng.Float64() < 0.3 {
				return 25
			}
			return 2
		})
		noisy, err := Apply(truth, Config{PhysicalCounters: 4, SlicesPerSample: 20})
		if err != nil {
			t.Fatal(err)
		}
		return NoiseSummary(noisy)
	}
	n8, n24 := mk(8), mk(24)
	if n24 <= n8 {
		t.Fatalf("noise should grow with counters: n8=%g n24=%g", n8, n24)
	}
}

func TestExtrapolationPreservesScaleOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	truth := sliceObs(10, 50, 20, func(c, s int) float64 {
		return 10 + rng.Float64()
	})
	noisy, err := Apply(truth, Config{PhysicalCounters: 4, SlicesPerSample: 20})
	if err != nil {
		t.Fatal(err)
	}
	truthMean := 0.0
	for _, row := range truth.Samples {
		truthMean += row[0]
	}
	truthMean = truthMean * 20 / float64(truth.Len()) // per-sample scale
	m := noisy.Mean()
	if math.Abs(m[0]-truthMean) > 0.1*truthMean {
		t.Fatalf("extrapolated mean %g far from truth %g", m[0], truthMean)
	}
}

func TestApplyErrors(t *testing.T) {
	truth := sliceObs(4, 2, 10, func(c, s int) float64 { return 1 })
	if _, err := Apply(truth, Config{PhysicalCounters: 0, SlicesPerSample: 10}); err == nil {
		t.Fatal("zero physical counters should error")
	}
	if _, err := Apply(truth, Config{PhysicalCounters: 4, SlicesPerSample: 7}); err == nil {
		t.Fatal("non-divisible slices should error")
	}
}

func TestNoiseSummaryEdgeCases(t *testing.T) {
	set := counters.NewSet("x")
	o := counters.NewObservation("tiny", set)
	if NoiseSummary(o) != 0 {
		t.Fatal("empty observation has zero noise")
	}
	o.Append([]float64{0})
	o.Append([]float64{0})
	if NoiseSummary(o) != 0 {
		t.Fatal("all-zero counters contribute no noise")
	}
}
