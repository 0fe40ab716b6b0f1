package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/haswell"
	"repro/internal/pagetable"
	"repro/internal/workloads"
)

// This file is the incremental-vs-batch differential property suite: the
// online path (Session.Test, one observation at a time, folded into a
// StreamFold) is correct exactly when the stream state after N verdicts
// is bit-identical to a cold batch evaluation of the same N-observation
// corpus — every field of StreamState (first-refuting index included),
// every verdict, every violation count, at every prefix. Incremental and
// batch run on SEPARATE engines so no shared cache can make the
// comparison vacuous.

// randomCorpus draws n observations around randomly feasible or
// infeasible means for the PDE model (misses ≤ walks is the deducible
// constraint), so refutation arrives at a random index.
func randomCorpus(n int, seed int64) []*counters.Observation {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*counters.Observation, n)
	for i := range out {
		cw, pm := 400+50*rng.Float64(), 100+50*rng.Float64()
		if rng.Float64() < 0.3 {
			cw, pm = pm, cw // more misses than walks: infeasible
		}
		out[i] = obsAround(fmt.Sprintf("r%d-%d", seed, i), cw, pm, 40, rng.Int63())
	}
	return out
}

// verdictsMatch compares two verdicts field by field (the wire-relevant
// fields: observation, feasibility, violation keys in order).
func verdictsMatch(a, b *core.Verdict) bool {
	if a.Observation != b.Observation || a.Feasible != b.Feasible || len(a.Violations) != len(b.Violations) {
		return false
	}
	for i := range a.Violations {
		if a.Violations[i].String() != b.Violations[i].String() {
			return false
		}
	}
	return true
}

// foldCorpus tests corpus one observation at a time on s and folds the
// verdicts in, as a stream worker does.
func foldCorpus(t *testing.T, s *Session, corpus []*counters.Observation) StreamFold {
	t.Helper()
	f := NewStreamFold(s.Config().Confidence)
	for i, o := range corpus {
		v, err := s.Test(context.Background(), o)
		if err != nil {
			t.Fatalf("%s: test %d: %v", s.Model().Name, i, err)
		}
		f.Add(v)
	}
	return f
}

// diffPrefixes tests corpus on engIncr one observation at a time, folding
// each verdict in, and after every verdict batch-evaluates the same
// prefix cold on engBatch, requiring bit-identical state.
func diffPrefixes(t *testing.T, m *core.Model, corpus []*counters.Observation, cfg Config) {
	t.Helper()
	engIncr := New(WithWorkers(1))
	defer engIncr.Close()
	engBatch := New(WithWorkers(1))
	defer engBatch.Close()

	is, err := engIncr.NewSession(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fold := NewStreamFold(is.Config().Confidence)
	bs, err := engBatch.NewSession(m, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for i, o := range corpus {
		v, err := is.Test(ctx, o)
		if err != nil {
			t.Fatalf("%s: test %d: %v", m.Name, i, err)
		}
		if idx := fold.Add(v); idx != i {
			t.Fatalf("%s: verdict %d folded at index %d", m.Name, i, idx)
		}
		batch, err := bs.Evaluate(ctx, corpus[:i+1])
		if err != nil {
			t.Fatalf("%s: batch prefix %d: %v", m.Name, i+1, err)
		}
		want := StateOf(batch, core.DefaultConfidence)
		if got := fold.State; got != want {
			t.Fatalf("%s: prefix %d: incremental state %+v != batch state %+v", m.Name, i+1, got, want)
		}
		if !verdictsMatch(v, batch.Verdicts[i]) {
			t.Fatalf("%s: observation %d: incremental verdict %+v != batch verdict %+v",
				m.Name, i, v, batch.Verdicts[i])
		}
		// The aggregated violation counts must match the batch aggregate
		// at every prefix too.
		got, want2 := fold.Violated, batch.ViolatedConstraints
		if len(got) != len(want2) {
			t.Fatalf("%s: prefix %d: violations %v != %v", m.Name, i+1, got, want2)
		}
		for k, n := range want2 {
			if got[k] != n {
				t.Fatalf("%s: prefix %d: violations %v != %v", m.Name, i+1, got, want2)
			}
		}
	}
}

// TestIncrementalMatchesBatchPrefixes is the randomized-corpus
// differential: several seeds, every prefix, bit-identical state and
// verdicts, under the service configuration (violations on).
func TestIncrementalMatchesBatchPrefixes(t *testing.T) {
	m := pdeModel(t)
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			corpus := randomCorpus(12, seed)
			diffPrefixes(t, m, corpus, Config{IdentifyViolations: true})
		})
	}
}

// TestIncrementalFirstRefutedIndex pins the refutation index directly:
// with the first infeasible observation planted at a known position, the
// state must flip exactly there and never move.
func TestIncrementalFirstRefutedIndex(t *testing.T) {
	m := pdeModel(t)
	corpus := []*counters.Observation{
		obsAround("c0", 500, 100, 40, 1),
		obsAround("c1", 450, 120, 40, 2),
		obsAround("bad", 100, 400, 40, 3),
		obsAround("c2", 480, 110, 40, 4),
		obsAround("bad2", 90, 380, 40, 5),
	}
	e := New(WithWorkers(1))
	defer e.Close()
	s, err := e.NewSession(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fold := NewStreamFold(s.Config().Confidence)
	for i, o := range corpus {
		v, err := s.Test(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		fold.Add(v)
		st := fold.State
		switch {
		case i < 2:
			if st.Refuted || st.FirstRefuted != -1 || st.Confidence != 0 {
				t.Fatalf("prefix %d: unexpectedly refuted: %+v", i+1, st)
			}
		default:
			if !st.Refuted || st.FirstRefuted != 2 {
				t.Fatalf("prefix %d: first-refuted index %d, want 2 (%+v)", i+1, st.FirstRefuted, st)
			}
		}
	}
	st := fold.State
	if st.Infeasible != 2 {
		t.Fatalf("infeasible: %d, want 2", st.Infeasible)
	}
	if want := RefutationConfidence(core.DefaultConfidence, 2); st.Confidence != want {
		t.Fatalf("confidence: %g, want %g", st.Confidence, want)
	}
}

// TestIncrementalShuffleInvariance ingests the same multiset of
// observations in several shuffled orders: every StreamState field
// except FirstRefuted (which records arrival order by definition) must
// be identical across orders, as must the violation aggregate.
func TestIncrementalShuffleInvariance(t *testing.T) {
	m := pdeModel(t)
	corpus := randomCorpus(10, 99)

	finalState := func(order []int) (StreamState, map[string]int) {
		e := New(WithWorkers(1))
		defer e.Close()
		s, err := e.NewSession(m, Config{IdentifyViolations: true})
		if err != nil {
			t.Fatal(err)
		}
		shuffled := make([]*counters.Observation, len(order))
		for i, idx := range order {
			shuffled[i] = corpus[idx]
		}
		f := foldCorpus(t, s, shuffled)
		return f.State, f.Violated
	}

	order := make([]int, len(corpus))
	for i := range order {
		order[i] = i
	}
	refState, refViol := finalState(order)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 3; trial++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		st, viol := finalState(order)
		// Mask the order-dependent field, then require exact equality.
		st.FirstRefuted, refState.FirstRefuted = 0, 0
		if st != refState {
			t.Fatalf("trial %d: shuffled state %+v != reference %+v (order %v)", trial, st, refState, order)
		}
		if len(viol) != len(refViol) {
			t.Fatalf("trial %d: violations %v != %v", trial, viol, refViol)
		}
		for k, n := range refViol {
			if viol[k] != n {
				t.Fatalf("trial %d: violations %v != %v", trial, viol, refViol)
			}
		}
	}
}

// catalogueCorpus simulates ground-truth Haswell observations once (the
// workload of TestGroundTruthFeasibleUnderM8, continued for several
// sampling windows) for the full-catalogue differential.
func catalogueCorpus(t *testing.T, n int) []*counters.Observation {
	t.Helper()
	sim := haswell.NewSimulator(haswell.DefaultConfig(pagetable.Page4K))
	gen, err := workloads.NewRandomBurst(512<<20, 16, 0.8, 13)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step(gen, 10000)
	out := make([]*counters.Observation, n)
	for i := range out {
		out[i] = haswell.WithAggregateWalkRef(sim.Observation(gen, 8, 10000))
		out[i].Label = fmt.Sprintf("gt%d", i)
	}
	return out
}

// TestIncrementalCatalogueDifferential runs the incremental-vs-batch
// differential over the paper's Table 3/5/7 catalogue models against
// ground-truth simulator observations: models the data refutes must
// refute at the same index on both paths, models it supports must stay
// consistent on both, with bit-identical state at every prefix. Short
// mode keeps one representative per table.
func TestIncrementalCatalogueDifferential(t *testing.T) {
	models := append(append(haswell.Table3Models(), haswell.Table5Models()...), haswell.Table7Models()...)
	if testing.Short() {
		keep := map[string]bool{"m0": true, "m4": true, "t17": true, "a3": true}
		var sub []haswell.NamedFeatures
		for _, nf := range models {
			if keep[nf.Name] {
				sub = append(sub, nf)
			}
		}
		models = sub
	}
	corpus := catalogueCorpus(t, 3)
	set := haswell.AnalysisSet()
	refuted := 0
	for _, nf := range models {
		nf := nf
		t.Run(nf.Name, func(t *testing.T) {
			m, err := haswell.BuildModel(nf.Name, nf.Features, set)
			if err != nil {
				t.Fatal(err)
			}
			diffPrefixes(t, m, corpus, Config{IdentifyViolations: true})
			e := New(WithWorkers(1))
			defer e.Close()
			s, err := e.NewSession(m, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if foldCorpus(t, s, corpus).State.Refuted {
				refuted++
			}
		})
	}
	// The catalogue must split: ground-truth data refutes the featureless
	// baseline m0 and supports the discovered-feature models, so a
	// differential that saw only one outcome would prove little.
	if !t.Failed() && (refuted == 0 || refuted == len(models)) {
		t.Fatalf("catalogue outcomes did not split: %d/%d refuted", refuted, len(models))
	}
}
