package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
)

// This file pins the contract of the engine's LP-hash memo: every session
// maps (model content, region content) to the canonical LP hash, so a verdict-cache hit needs neither the LP nor its
// hash — and nothing about that shortcut may change a verdict.

// memoWorkers are the pool sizes every memo contract test runs on: the
// serial engine and a 4-worker one whose concurrent misses race on the
// memo and the verdict cache.
var memoWorkers = []int{1, 4}

// forEachMemoEngine runs f as a subtest against a fresh engine of each
// pool size in memoWorkers, passing extra options through.
func forEachMemoEngine(t *testing.T, f func(t *testing.T, e *Engine), opts ...Option) {
	for _, w := range memoWorkers {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			e := New(append([]Option{WithWorkers(w)}, opts...)...)
			defer e.Close()
			f(t, e)
		})
	}
}

// verdictBytes is a verdict's byte-exact encoding: every wire-relevant
// field plus the confidence region it was decided against.
func verdictBytes(t *testing.T, v *core.Verdict) []byte {
	t.Helper()
	w := struct {
		Model, Observation string
		Feasible           bool
		Violations         []string
		Set                string
		Mode               int
		Confidence         float64
		Mean, HalfWidths   []float64
		Axes               [][]float64
	}{
		Model: v.Model, Observation: v.Observation, Feasible: v.Feasible,
		Set: v.Region.Set.Key(), Mode: int(v.Region.Mode), Confidence: v.Region.Confidence,
		Mean: v.Region.Mean, HalfWidths: v.Region.HalfWidths, Axes: v.Region.Axes,
	}
	for _, k := range v.Violations {
		w.Violations = append(w.Violations, k.String())
	}
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// memoCorpus mixes feasible and refuting observations of the PDE model,
// each with distinct content.
func memoCorpus() []*counters.Observation {
	return append(mixedCorpus(), randomCorpus(20, 77)...)
}

// decodeCorpus returns freshly JSON-decoded copies of corpus, as a service
// decodes a new *Observation for every request.
func decodeCorpus(t *testing.T, corpus []*counters.Observation) []*counters.Observation {
	t.Helper()
	out := make([]*counters.Observation, len(corpus))
	for i, o := range corpus {
		out[i] = decodedCopies(t, o, 1)[0]
	}
	return out
}

// forceExactVerdicts evaluates corpus on a separate engine with every
// accelerated path and cache bypassed: the reference the memo must match.
// The observations must have distinct content, so the reference engine
// never takes a memo hit itself.
func forceExactVerdicts(t *testing.T, m *core.Model, corpus []*counters.Observation) [][]byte {
	t.Helper()
	e := New(WithWorkers(1))
	defer e.Close()
	s, err := e.NewSession(m, Config{IdentifyViolations: true, ForceExact: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Evaluate(context.Background(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(res.Verdicts))
	for i, v := range res.Verdicts {
		out[i] = verdictBytes(t, v)
	}
	return out
}

// TestMemoEphemeralMatchesForceExact: a session evaluating the same corpus
// twice, from freshly decoded copies each time (as a service decodes every
// request), gives verdicts byte-identical to the cold exact baseline on
// both passes, and the second pass is served entirely by the region
// cache, the memo and the verdict cache.
func TestMemoEphemeralMatchesForceExact(t *testing.T) {
	m := pdeModel(t)
	corpus := memoCorpus()
	want := forceExactVerdicts(t, m, corpus)
	forEachMemoEngine(t, func(t *testing.T, e *Engine) {
		s, err := e.NewSession(m, Config{IdentifyViolations: true})
		if err != nil {
			t.Fatal(err)
		}
		var before CacheCounts
		var evals uint64
		for pass := 1; pass <= 2; pass++ {
			before, evals = e.CacheStats(), e.SolverStats().Evaluations
			res, err := s.Evaluate(context.Background(), decodeCorpus(t, corpus))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Verdicts) != len(want) {
				t.Fatalf("pass %d: %d verdicts, want %d", pass, len(res.Verdicts), len(want))
			}
			for i, v := range res.Verdicts {
				if got := verdictBytes(t, v); !bytes.Equal(got, want[i]) {
					t.Fatalf("pass %d, observation %d:\n got %s\nwant %s", pass, i, got, want[i])
				}
			}
		}
		after := e.CacheStats()
		if hits, misses := after.RegionHits-before.RegionHits, after.RegionMisses-before.RegionMisses; hits != uint64(len(corpus)) || misses != 0 {
			t.Fatalf("second pass: %d region hits, %d misses; want %d, 0", hits, misses, len(corpus))
		}
		if hits, misses := after.LPHits-before.LPHits, after.LPMisses-before.LPMisses; hits != uint64(len(corpus)) || misses != 0 {
			t.Fatalf("second pass: %d memo hits, %d misses; want %d, 0", hits, misses, len(corpus))
		}
		if got := e.SolverStats().Evaluations; got != evals {
			t.Fatalf("second pass ran %d solver evaluations, want 0", got-evals)
		}
	})
}

// independentModelSrc has the PDE model's counter set but a different
// cone: walks and PDE misses count independently, so observations the
// PDE model refutes (more misses than walks) are feasible here.
const independentModelSrc = `
do LookupPde$;
switch Pde$Status {
    Hit  => incr load.causes_walk;
    Miss => incr load.pde$_miss;
};
done;
`

// TestMemoKeysOnModelContent: two models over one counter set but with
// different content keys never share a memo entry for the same region,
// so neither ever borrows the other's verdict.
func TestMemoKeysOnModelContent(t *testing.T) {
	pde := pdeModel(t)
	ind, err := core.ModelFromDSL("independent", independentModelSrc, pdeSet())
	if err != nil {
		t.Fatal(err)
	}
	if pde.ContentKey() == ind.ContentKey() {
		t.Fatal("test models share a content key")
	}
	bad := obsAround("bad", 100, 400, 100, 3)
	forEachMemoEngine(t, func(t *testing.T, e *Engine) {
		for i, m := range []*core.Model{pde, ind, pde, ind} {
			s, err := e.SessionFor(m, Config{})
			if err != nil {
				t.Fatal(err)
			}
			v, err := s.Test(context.Background(), decodedCopies(t, bad, 1)[0])
			if err != nil {
				t.Fatal(err)
			}
			if want := m == ind; v.Feasible != want {
				t.Fatalf("test %d (%s): feasible %v, want %v", i, m.Name, v.Feasible, want)
			}
		}
		c := e.CacheStats()
		if c.LPMisses != 2 || c.LPHits != 2 || c.LPEntries != 2 {
			t.Fatalf("memo misses %d hits %d entries %d; want 2/2/2", c.LPMisses, c.LPHits, c.LPEntries)
		}
		if got := e.SolverStats().Evaluations; got != 2 {
			t.Fatalf("%d solver evaluations, want one per model", got)
		}
	})
}

// TestMemoHitAfterVerdictEviction: when the verdict LRU has evicted a
// verdict whose LP hash is still memoised, the memo hit must fall through
// to building the LP and solving it afresh, with the same verdict.
func TestMemoHitAfterVerdictEviction(t *testing.T) {
	m := pdeModel(t)
	ok, bad := obsAround("ok", 500, 100, 100, 21), obsAround("bad", 100, 400, 100, 22)
	want := forceExactVerdicts(t, m, []*counters.Observation{ok, bad})
	forEachMemoEngine(t, func(t *testing.T, e *Engine) {
		s, err := e.NewSession(m, Config{IdentifyViolations: true})
		if err != nil {
			t.Fatal(err)
		}
		// The one-entry verdict cache holds only the latest verdict, so
		// every test after the first two is a memo hit and a verdict miss.
		for i, o := range []*counters.Observation{ok, bad, ok, bad} {
			v, err := s.Test(context.Background(), decodedCopies(t, o, 1)[0])
			if err != nil {
				t.Fatal(err)
			}
			if got := verdictBytes(t, v); !bytes.Equal(got, want[i%2]) {
				t.Fatalf("test %d:\n got %s\nwant %s", i, got, want[i%2])
			}
		}
		c := e.CacheStats()
		if c.LPHits != 2 || c.LPMisses != 2 {
			t.Fatalf("memo hits %d misses %d, want 2/2", c.LPHits, c.LPMisses)
		}
		if c.VerdictHits != 0 || c.VerdictMisses != 4 || c.VerdictEvictions != 3 {
			t.Fatalf("verdict hits %d misses %d evictions %d, want 0/4/3", c.VerdictHits, c.VerdictMisses, c.VerdictEvictions)
		}
		if got := e.SolverStats().Evaluations; got != 4 {
			t.Fatalf("%d solver evaluations, want 4", got)
		}
	}, WithCacheLimits(0, 1))
}

// TestMemoForceExactAlwaysSolves: ForceExact bypasses the verdict cache,
// so even a memo hit on content whose verdict is cached builds the LP and
// runs the exact solver.
func TestMemoForceExactAlwaysSolves(t *testing.T) {
	m := pdeModel(t)
	corpus := mixedCorpus()
	want := forceExactVerdicts(t, m, corpus)
	forEachMemoEngine(t, func(t *testing.T, e *Engine) {
		// A normal session first fills the memo and the verdict cache.
		warm, err := e.NewSession(m, Config{IdentifyViolations: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := warm.Evaluate(context.Background(), corpus); err != nil {
			t.Fatal(err)
		}
		s, err := e.NewSession(m, Config{IdentifyViolations: true, ForceExact: true})
		if err != nil {
			t.Fatal(err)
		}
		before, solver := e.CacheStats(), e.SolverStats()
		res, err := s.Evaluate(context.Background(), decodeCorpus(t, corpus))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range res.Verdicts {
			if got := verdictBytes(t, v); !bytes.Equal(got, want[i]) {
				t.Fatalf("observation %d:\n got %s\nwant %s", i, got, want[i])
			}
		}
		after, solved := e.CacheStats(), e.SolverStats()
		if hits := after.LPHits - before.LPHits; hits != uint64(len(corpus)) {
			t.Fatalf("%d memo hits, want %d", hits, len(corpus))
		}
		if after.VerdictHits != before.VerdictHits || after.VerdictMisses != before.VerdictMisses {
			t.Fatal("ForceExact consulted the verdict cache")
		}
		n := uint64(len(corpus))
		if evals, exact := solved.Evaluations-solver.Evaluations, solved.ExactFallbacks-solver.ExactFallbacks; evals != n || exact != n {
			t.Fatalf("%d evaluations, %d exact solves; want %d each", evals, exact, n)
		}
	})
}
