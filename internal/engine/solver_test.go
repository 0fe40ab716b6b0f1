package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
)

// wideModelSrc is a 3-counter, 4-μpath model. Its feasibility LP (4
// generators × 6 slab rows) sat above the float-filter size gate before
// the int64 kernel moved the crossover; today LPs of this size solve
// faster on the kernel's exact tier, so the gate routes them there.
const wideModelSrc = `
incr load.causes_walk;
do LookupPde$;
switch Pde$Status {
    Hit  => pass;
    Miss => incr load.pde$_miss;
};
do LookupPdpe$;
switch Pdpe$Status {
    Hit  => pass;
    Miss => incr load.pdpe$_miss;
};
done;
`

func wideSet() *counters.Set {
	return counters.NewSet("load.causes_walk", "load.pde$_miss", "load.pdpe$_miss")
}

func wideModel(t testing.TB) *core.Model {
	t.Helper()
	m, err := core.ModelFromDSL("wide", wideModelSrc, wideSet())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func wideObs(label string, cw, pm, pp float64, samples int, seed int64) *counters.Observation {
	o := counters.NewObservation(label, wideSet())
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < samples; i++ {
		o.Append([]float64{cw + rng.NormFloat64(), pm + rng.NormFloat64(), pp + rng.NormFloat64()})
	}
	return o
}

// TestSolverTelemetry checks that corpus evaluation feeds the engine's
// two-tier solver counters: every evaluation is accounted for as either a
// filter hit or an exact fallback, and every exact solve is accounted for
// by the int64-kernel counters (fast or promoted). Float-filter coverage
// on LPs above the (kernel-raised) size gate is pinned by the root
// package's catalogue sweep, whose analysis-set LPs are ~240×46.
func TestSolverTelemetry(t *testing.T) {
	e := New()
	defer e.Close()
	s, err := e.NewSession(wideModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	corpus := []*counters.Observation{
		wideObs("ok1", 500, 100, 60, 100, 20),
		wideObs("ok2", 300, 250, 200, 100, 21),
		wideObs("bad1", 100, 400, 50, 100, 22),
	}
	res, err := s.Evaluate(context.Background(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	c := e.SolverStats()
	if c.Evaluations != uint64(res.Total) {
		t.Fatalf("evaluations %d, want %d", c.Evaluations, res.Total)
	}
	if c.FilterHits()+c.ExactFallbacks != c.Evaluations {
		t.Fatalf("counters don't partition: %+v", c)
	}
	if c.KernelFastSolves+c.KernelPromotedSolves != c.ExactFallbacks {
		t.Fatalf("kernel counters don't cover the exact solves: %+v", c)
	}
	if c.KernelPromotedSolves == 0 && c.KernelPromotions != 0 {
		t.Fatalf("promotions without promoted solves: %+v", c)
	}
}

// TestTinyLPsSkipFilter pins the size gate: the 2-counter pde model's LP
// is below tier.FilterMinSize, so every verdict is an exact fallback (the
// filter would only add overhead there) while verdicts stay correct.
func TestTinyLPsSkipFilter(t *testing.T) {
	e := New()
	defer e.Close()
	s, err := e.NewSession(pdeModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Evaluate(context.Background(), mixedCorpus())
	if err != nil {
		t.Fatal(err)
	}
	if res.Infeasible != 2 {
		t.Fatalf("infeasible %d, want 2", res.Infeasible)
	}
	c := e.SolverStats()
	if c.FilterHits() != 0 || c.CertFailures != 0 {
		t.Fatalf("tiny LPs engaged the filter: %+v", c)
	}
	if c.ExactFallbacks != c.Evaluations {
		t.Fatalf("tiny LPs not all exact: %+v", c)
	}
}

// TestForceExactDisablesFilter checks the Config escape hatch: verdicts are
// unchanged but every evaluation goes through the exact tier.
func TestForceExactDisablesFilter(t *testing.T) {
	e := New()
	defer e.Close()
	m := pdeModel(t)
	corpus := mixedCorpus()

	hybrid, err := e.NewSession(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hres, err := hybrid.Evaluate(context.Background(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	before := e.SolverStats()

	exact, err := e.NewSession(m, Config{ForceExact: true})
	if err != nil {
		t.Fatal(err)
	}
	eres, err := exact.Evaluate(context.Background(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	after := e.SolverStats()

	if hres.Infeasible != eres.Infeasible || hres.Total != eres.Total {
		t.Fatalf("hybrid (%d/%d infeasible) and exact (%d/%d) verdicts diverge",
			hres.Infeasible, hres.Total, eres.Infeasible, eres.Total)
	}
	for i := range hres.Verdicts {
		if hres.Verdicts[i].Feasible != eres.Verdicts[i].Feasible {
			t.Fatalf("verdict %d diverges: hybrid %v, exact %v",
				i, hres.Verdicts[i].Feasible, eres.Verdicts[i].Feasible)
		}
	}
	if got := after.FilterHits() - before.FilterHits(); got != 0 {
		t.Fatalf("ForceExact session recorded %d filter hits", got)
	}
	if got := after.ExactFallbacks - before.ExactFallbacks; got != uint64(eres.Total) {
		t.Fatalf("ForceExact session recorded %d exact fallbacks, want %d", got, eres.Total)
	}
	// ForceExact must key its own shared session: the two configurations
	// may not collapse onto one cache entry.
	s1, err := e.SessionFor(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.SessionFor(m, Config{ForceExact: true})
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("SessionFor merged hybrid and ForceExact configurations")
	}
}
