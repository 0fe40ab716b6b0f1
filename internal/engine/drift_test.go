package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/counters"
)

// driftCorpus builds a walk-style corpus: every observation holds the
// same noise samples shifted by a per-observation constant, so the
// sample covariance — and therefore the region axes — are bit-identical
// across the corpus while the region bounds drift. Consecutive
// feasibility LPs then share their coefficient rows and differ only in
// right-hand sides.
func driftCorpus(set *counters.Set, n, samples int, base []float64, step []float64, seed int64) []*counters.Observation {
	rng := rand.New(rand.NewSource(seed))
	noise := make([][]float64, samples)
	for i := range noise {
		noise[i] = make([]float64, set.Len())
		for j := range noise[i] {
			noise[i][j] = rng.NormFloat64()
		}
	}
	out := make([]*counters.Observation, n)
	for k := 0; k < n; k++ {
		o := counters.NewObservation(fmt.Sprintf("drift%d", k), set)
		for _, nv := range noise {
			v := make([]float64, set.Len())
			for j := range v {
				v[j] = base[j] + float64(k)*step[j] + nv[j]
			}
			o.Append(v)
		}
		out[k] = o
	}
	return out
}

// TestDriftMatchesForceExact drives a drifting-bounds corpus through a
// default session and a ForceExact (cold baseline) session on separate
// one-worker engines: every verdict must match the cold baseline
// bit-for-bit, and the default session's sub-gate LPs must each be one
// from-scratch exact solve.
func TestDriftMatchesForceExact(t *testing.T) {
	set := pdeSet()
	corpus := driftCorpus(set, 24, 60, []float64{500, 200}, []float64{4, 2.5}, 17)

	cold := New(WithWorkers(1))
	defer cold.Close()
	cs, err := cold.NewSession(pdeModel(t), Config{ForceExact: true})
	if err != nil {
		t.Fatal(err)
	}
	coldRes, err := cs.Evaluate(context.Background(), corpus)
	if err != nil {
		t.Fatal(err)
	}

	def := New(WithWorkers(1))
	defer def.Close()
	ds, err := def.NewSession(pdeModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.Evaluate(context.Background(), corpus)
	if err != nil {
		t.Fatal(err)
	}

	if res.Total != coldRes.Total {
		t.Fatalf("totals diverge: %d vs %d", res.Total, coldRes.Total)
	}
	for i := range coldRes.Verdicts {
		if res.Verdicts[i].Feasible != coldRes.Verdicts[i].Feasible {
			t.Fatalf("verdict %d diverges: default %v, cold %v",
				i, res.Verdicts[i].Feasible, coldRes.Verdicts[i].Feasible)
		}
	}
	c := def.SolverStats()
	if c.ExactFallbacks != c.Evaluations || c.ColdSolves != c.ExactFallbacks || c.WarmSolves != 0 {
		t.Fatalf("sub-gate drift: want every evaluation decided by one exact solve, got %+v", c)
	}
}
