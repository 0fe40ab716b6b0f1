package dcache

import (
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func TestSimCountsBasics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StreamPrefetcher = false
	s, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Access(0)
	s.Access(0)
	c := s.counts.Clone()
	if c.Get(Hit) != 1 || c.Get(Miss) != 1 || c.Get(Fill) != 1 {
		t.Fatalf("counts: %s", c)
	}
}

func TestStreamPrefetcherFillsAhead(t *testing.T) {
	s, err := NewSim(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Sequential lines 0,1: the pair triggers a prefetch of line 2.
	s.Access(0)
	s.Access(64)
	c := s.counts.Clone()
	if c.Get(Fill) != c.Get(Miss)+1 {
		t.Fatalf("prefetch fill missing: %s", c)
	}
	// The prefetched line now hits.
	s.Access(128)
	if got := s.counts.Clone().Get(Hit); got != 1 {
		t.Fatalf("prefetched line should hit: hits=%g", got)
	}
}

func TestRandomDoesNotTriggerStreams(t *testing.T) {
	s, err := NewSim(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workloads.NewRandom(64<<20, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		s.Access(gen.Next().VA)
	}
	c := s.counts.Clone()
	// A few accidental adjacencies are possible but fills ≈ misses.
	if c.Get(Fill) > c.Get(Miss)*1.01 {
		t.Fatalf("random stream should barely prefetch: %s", c)
	}
}

// TestCaseStudyEndToEnd runs the full CounterPoint loop on the second
// component: the conventional model is refuted by prefetching hardware on
// a sequential workload, the violated constraint names the fill counter,
// and the refined model is feasible.
func TestCaseStudyEndToEnd(t *testing.T) {
	s, err := NewSim(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workloads.NewLinear(8<<20, 64, 1.0, false)
	if err != nil {
		t.Fatal(err)
	}
	obs := s.Observation(gen, 20, 10000)

	conventional, err := core.ModelFromDSL("l1d-conventional", ConventionalModelSrc, Set())
	if err != nil {
		t.Fatal(err)
	}
	v, err := conventional.TestObservation(obs, core.DefaultConfidence, stats.Correlated, true)
	if err != nil {
		t.Fatal(err)
	}
	if v.Feasible {
		t.Fatal("conventional model must be refuted by prefetching hardware")
	}
	foundFill := false
	for _, k := range v.Violations {
		if k.String() == "l1d.fill = l1d.miss" || k.String() == "l1d.miss = l1d.fill" {
			foundFill = true
		}
	}
	if !foundFill {
		t.Fatalf("violated constraints should name the fill/miss equality: %v", v.Violations)
	}

	refined, err := core.ModelFromDSL("l1d-prefetcher", PrefetcherModelSrc, Set())
	if err != nil {
		t.Fatal(err)
	}
	v2, err := refined.TestObservation(obs, core.DefaultConfidence, stats.Correlated, false)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Feasible {
		t.Fatal("refined model must accept the data")
	}

	// And the refined model remains refutable: prefetcher-free hardware on
	// the same workload satisfies the conventional model too.
	cfg := DefaultConfig()
	cfg.StreamPrefetcher = false
	plain, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := workloads.NewLinear(8<<20, 64, 1.0, false)
	if err != nil {
		t.Fatal(err)
	}
	obs2 := plain.Observation(gen2, 20, 10000)
	v3, err := conventional.TestObservation(obs2, core.DefaultConfidence, stats.Correlated, false)
	if err != nil {
		t.Fatal(err)
	}
	if !v3.Feasible {
		t.Fatal("conventional model must accept prefetcher-free hardware")
	}
}
