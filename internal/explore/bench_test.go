package explore

import (
	"math/rand"
	"testing"

	"repro/internal/counters"
	"repro/internal/engine"
)

// The benchmark search space: the Figure 6 "abort" feature plus five
// red herrings, so every discovery frontier is six candidates wide — the
// shape where frontier parallelism pays. The corpus is eight observations
// (one anomalous), large enough that each node evaluation does real
// spectral + LP work.
func benchCorpus() []*counters.Observation {
	set := counters.NewSet("load.causes_walk", "load.pde$_miss")
	mk := func(label string, cw, pm float64, seed int64) *counters.Observation {
		o := counters.NewObservation(label, set)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			o.Append([]float64{cw + rng.NormFloat64(), pm + rng.NormFloat64()})
		}
		return o
	}
	out := []*counters.Observation{mk("anomalous", 200, 500, 99)}
	for i := int64(0); i < 7; i++ {
		out = append(out, mk("benign", 500, 300, i))
	}
	return out
}

var benchUniverse = []string{"abort", "redherring0", "redherring1", "redherring2", "redherring3", "redherring4"}

// benchmarkExplore runs the full discovery + elimination search on a cold
// engine per iteration, with the given frontier parallelism.
func benchmarkExplore(b *testing.B, workers int) {
	builder := wideBuilder(benchUniverse[1:])
	corpus := benchCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.New()
		s := NewSearch(builder, corpus)
		s.Engine = eng
		s.Workers = workers
		final, err := s.Discover(NewFeatureSet(), benchUniverse)
		if err != nil {
			b.Fatal(err)
		}
		if !final.Feasible() {
			b.Fatalf("search did not converge: %s", final.Features)
		}
		if _, err := s.Eliminate(final, benchUniverse); err != nil {
			b.Fatal(err)
		}
		eng.Close()
	}
}

// BenchmarkExploreSequential evaluates one frontier candidate at a time
// (a worker bound of 1 over the same search; corpus batches still use
// the engine pool).
func BenchmarkExploreSequential(b *testing.B) { benchmarkExplore(b, 1) }

// BenchmarkExploreParallel evaluates each frontier concurrently. Results
// are bit-identical to BenchmarkExploreSequential's; only wall-clock
// changes.
func BenchmarkExploreParallel(b *testing.B) { benchmarkExplore(b, 0) }
