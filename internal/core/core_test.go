package core

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cone"
	"repro/internal/counters"
	"repro/internal/exact"
	"repro/internal/simplex"
	"repro/internal/stats"
)

// initialModel is the Figure 6a model: the walk is started (incrementing
// causes_walk) before the PDE cache is looked up, so pde$_miss can never
// exceed causes_walk.
const initialModelSrc = `
incr load.causes_walk;
do LookupPde$;
switch Pde$Status {
    Hit  => pass;
    Miss => incr load.pde$_miss;
};
done;
`

// refinedModel is the Figure 6c model: early PDE cache lookup plus abortable
// translation requests, adding the μpath with signature (0, 1).
const refinedModelSrc = `
do LookupPde$;
switch Pde$Status {
    Hit  => pass;
    Miss => {
        incr load.pde$_miss;
        switch Abort {
            Yes => done;
            No  => pass;
        };
    };
};
do StartWalk;
incr load.causes_walk;
done;
`

func pdeSet() *counters.Set {
	return counters.NewSet("load.causes_walk", "load.pde$_miss")
}

// obsAround builds an observation of m samples scattered tightly around
// (cw, pm) with small noise.
func obsAround(label string, cw, pm float64, m int, seed int64) *counters.Observation {
	o := counters.NewObservation(label, pdeSet())
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < m; i++ {
		o.Append([]float64{cw + rng.NormFloat64(), pm + rng.NormFloat64()})
	}
	return o
}

func TestModelFromDSLAndConstraints(t *testing.T) {
	m, err := ModelFromDSL("initial", initialModelSrc, pdeSet())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumPaths() != 2 {
		t.Fatalf("paths: %d", m.NumPaths())
	}
	h, err := m.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range h.Inequalities {
		if k.String() == "load.pde$_miss <= load.causes_walk" {
			found = true
		}
	}
	if !found {
		t.Fatalf("constraint C not found in %v", h.Inequalities)
	}
}

func TestFeasibleObservation(t *testing.T) {
	m, err := ModelFromDSL("initial", initialModelSrc, pdeSet())
	if err != nil {
		t.Fatal(err)
	}
	o := obsAround("feasible", 500, 200, 300, 1)
	v, err := m.TestObservation(o, DefaultConfidence, stats.Correlated, true)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Feasible {
		t.Fatal("observation inside the cone should be feasible")
	}
	if len(v.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", v.Violations)
	}
}

func TestInfeasibleObservationIdentifiesViolation(t *testing.T) {
	m, err := ModelFromDSL("initial", initialModelSrc, pdeSet())
	if err != nil {
		t.Fatal(err)
	}
	// pde$_miss far exceeds causes_walk: violates constraint C.
	o := obsAround("violating", 200, 500, 300, 2)
	v, err := m.TestObservation(o, DefaultConfidence, stats.Correlated, true)
	if err != nil {
		t.Fatal(err)
	}
	if v.Feasible {
		t.Fatal("observation outside the cone should be infeasible")
	}
	if len(v.Violations) == 0 {
		t.Fatal("violations should be identified")
	}
	found := false
	for _, k := range v.Violations {
		if k.String() == "load.pde$_miss <= load.causes_walk" {
			found = true
		}
	}
	if !found {
		t.Fatalf("constraint C should be among violations: %v", v.Violations)
	}
}

func TestRefinedModelAcceptsViolatingObservation(t *testing.T) {
	// The Figure 6 refinement loop: the same observation that refutes the
	// initial model is feasible under the refined model.
	refined, err := ModelFromDSL("refined", refinedModelSrc, pdeSet())
	if err != nil {
		t.Fatal(err)
	}
	o := obsAround("violating", 200, 500, 300, 2)
	v, err := refined.TestObservation(o, DefaultConfidence, stats.Correlated, false)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Feasible {
		t.Fatal("refined model must accept the observation")
	}
	// And the refined cone strictly contains the initial cone.
	initial, err := ModelFromDSL("initial", initialModelSrc, pdeSet())
	if err != nil {
		t.Fatal(err)
	}
	if !initial.Cone().SubsetOf(refined.Cone()) {
		t.Fatal("refinement must expand the model cone")
	}
	if refined.Cone().SubsetOf(initial.Cone()) {
		t.Fatal("refined cone must be strictly larger")
	}
}

func TestNoiseCanMaskViolation(t *testing.T) {
	// A mildly violating observation with huge noise is feasible (the region
	// reaches into the cone); with low noise it is infeasible.
	m, err := ModelFromDSL("initial", initialModelSrc, pdeSet())
	if err != nil {
		t.Fatal(err)
	}
	quiet := counters.NewObservation("quiet", pdeSet())
	noisy := counters.NewObservation("noisy", pdeSet())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		quiet.Append([]float64{100 + rng.NormFloat64(), 110 + rng.NormFloat64()})
		noisy.Append([]float64{100 + 40*rng.NormFloat64(), 110 + 40*rng.NormFloat64()})
	}
	vq, err := m.TestObservation(quiet, DefaultConfidence, stats.Independent, false)
	if err != nil {
		t.Fatal(err)
	}
	vn, err := m.TestObservation(noisy, DefaultConfidence, stats.Independent, false)
	if err != nil {
		t.Fatal(err)
	}
	if vq.Feasible {
		t.Fatal("quiet violating observation should be infeasible")
	}
	if !vn.Feasible {
		t.Fatal("noisy observation should be masked (feasible)")
	}
}

func TestCorrelatedDetectsMoreThanIndependent(t *testing.T) {
	// Construct samples where causes_walk and pde$_miss are strongly
	// correlated and pde$_miss slightly exceeds causes_walk. The correlated
	// region is tight around the offending direction and detects the
	// violation; the independent box is loose enough to intersect the cone.
	m, err := ModelFromDSL("initial", initialModelSrc, pdeSet())
	if err != nil {
		t.Fatal(err)
	}
	o := counters.NewObservation("correlated", pdeSet())
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 400; i++ {
		base := 1000 + 200*rng.NormFloat64()
		o.Append([]float64{base, base + 8 + rng.NormFloat64()})
	}
	vc, err := m.TestObservation(o, DefaultConfidence, stats.Correlated, false)
	if err != nil {
		t.Fatal(err)
	}
	vi, err := m.TestObservation(o, DefaultConfidence, stats.Independent, false)
	if err != nil {
		t.Fatal(err)
	}
	if vc.Feasible {
		t.Fatal("correlated region should detect the violation")
	}
	if !vi.Feasible {
		t.Fatal("independent region should mask the violation")
	}
}

func TestRegionViolatesClosedForm(t *testing.T) {
	set := pdeSet()
	r := &stats.Region{
		Set:        set,
		Mean:       []float64{10, 20},
		Axes:       [][]float64{{1, 0}, {0, 1}},
		HalfWidths: []float64{1, 1},
	}
	// pde$_miss - causes_walk <= 0: min over box = (20-10) - 2 = 8 > 0.
	k := cone.Constraint{Set: set, Coeffs: exact.VecFromInts(-1, 1), Rel: cone.LEZero}
	if !RegionViolates(r, k) {
		t.Fatal("region should violate C")
	}
	// causes_walk - pde$_miss <= 0 is satisfied everywhere on the box.
	k2 := cone.Constraint{Set: set, Coeffs: exact.VecFromInts(1, -1), Rel: cone.LEZero}
	if RegionViolates(r, k2) {
		t.Fatal("region should satisfy reversed constraint")
	}
	// Equality: causes_walk - pde$_miss = 0 violated (interval [-12,-8]).
	k3 := cone.Constraint{Set: set, Coeffs: exact.VecFromInts(1, -1), Rel: cone.EQZero}
	if !RegionViolates(r, k3) {
		t.Fatal("region should violate equality")
	}
}

// regionViolatesFullSum is RegionViolates without the early exit: the
// closed form summed over every axis.
func regionViolatesFullSum(r *stats.Region, k cone.Constraint) bool {
	af := k.Floats()
	center := 0.0
	for i, a := range af {
		center += a * r.Mean[i]
	}
	spread := 0.0
	for i, axis := range r.Axes {
		dot := 0.0
		for j, a := range af {
			dot += a * axis[j]
		}
		if dot < 0 {
			dot = -dot
		}
		spread += dot * r.HalfWidths[i]
	}
	min, max := center-spread, center+spread
	if k.Rel == cone.EQZero {
		return min > 0 || max < 0
	}
	return min > 0
}

// TestRegionViolatesEarlyExitMatchesFullSum checks the early exit against
// the full sum on random regions and constraints, LE and EQ, with ±0,
// ±Inf and NaN among the means, axis entries and half-widths and infinite
// coefficients among the constraints.
func TestRegionViolatesEarlyExitMatchesFullSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	value := func() float64 {
		switch rng.Intn(12) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Inf(1)
		case 3:
			return math.Inf(-1)
		case 4:
			return math.NaN()
		default:
			return float64(rng.Intn(41)-20) + rng.Float64()
		}
	}
	halfWidth := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Inf(1)
		case 3:
			return math.NaN()
		default:
			return rng.ExpFloat64()
		}
	}
	huge := new(big.Rat).SetFrac(new(big.Int).Exp(big.NewInt(10), big.NewInt(400), nil), big.NewInt(1))
	violated, satisfied := 0, 0
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(5)
		events := make([]counters.Event, n)
		for i := range events {
			events[i] = counters.Event(fmt.Sprintf("e%d", i))
		}
		set := counters.NewSet(events...)
		clean := rng.Intn(2) == 0 // half the cases draw only finite values
		draw := func(special func() float64, finite func() float64) float64 {
			if clean {
				return finite()
			}
			return special()
		}
		r := &stats.Region{Set: set, Mean: make([]float64, n), HalfWidths: make([]float64, n)}
		for i := 0; i < n; i++ {
			r.Mean[i] = draw(value, func() float64 { return 40*rng.Float64() - 20 })
			axis := make([]float64, n)
			for j := range axis {
				axis[j] = draw(value, func() float64 { return 2*rng.Float64() - 1 })
			}
			r.Axes = append(r.Axes, axis)
			r.HalfWidths[i] = draw(halfWidth, func() float64 { return 3 * rng.Float64() })
		}
		coeffs := exact.NewVec(n)
		for j := range coeffs {
			coeffs[j].SetInt64(int64(rng.Intn(7) - 3))
			if !clean && rng.Intn(15) == 0 {
				coeffs[j].Set(huge)
				if rng.Intn(2) == 0 {
					coeffs[j].Neg(coeffs[j])
				}
			}
		}
		rel := cone.LEZero
		if rng.Intn(3) == 0 {
			rel = cone.EQZero
		}
		k := cone.Constraint{Set: set, Coeffs: coeffs, Rel: rel}
		got, want := RegionViolates(r, k), regionViolatesFullSum(r, k)
		if got != want {
			t.Fatalf("trial %d: RegionViolates = %v, full sum %v (rel %v, coeffs %v, mean %v, axes %v, half-widths %v)",
				trial, got, want, rel, k.Floats(), r.Mean, r.Axes, r.HalfWidths)
		}
		if want {
			violated++
		} else {
			satisfied++
		}
	}
	if violated < 1000 || satisfied < 1000 {
		t.Fatalf("unbalanced cases: %d violated, %d satisfied", violated, satisfied)
	}
}

// Corpus evaluation (the seed's TestEvaluateCorpus) is covered by
// internal/engine's tests, where the worker pool now lives.

// TestRegionWSReuse checks that a single workspace reused across many
// verdicts gives the same answers as fresh per-call solves.
func TestRegionWSReuse(t *testing.T) {
	m, err := ModelFromDSL("initial", initialModelSrc, pdeSet())
	if err != nil {
		t.Fatal(err)
	}
	ws := simplex.NewWorkspace()
	corpus := []*counters.Observation{
		obsAround("ok1", 500, 100, 100, 10),
		obsAround("bad1", 100, 400, 100, 12),
		obsAround("ok2", 300, 299, 100, 11),
		obsAround("bad2", 50, 200, 100, 13),
	}
	for _, o := range corpus {
		r, err := stats.NewRegion(o, DefaultConfidence, stats.Correlated)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.TestRegionSolver(&Solver{Exact: ws}, r, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.TestRegion(r, true)
		if err != nil {
			t.Fatal(err)
		}
		if got.Feasible != want.Feasible {
			t.Fatalf("%s: workspace verdict %v, fresh verdict %v", o.Label, got.Feasible, want.Feasible)
		}
		if len(got.Violations) != len(want.Violations) {
			t.Fatalf("%s: violations %v vs %v", o.Label, got.Violations, want.Violations)
		}
	}
}

func TestObservationProjection(t *testing.T) {
	// Observations with extra counters are projected onto the model set.
	m, err := ModelFromDSL("initial", initialModelSrc, pdeSet())
	if err != nil {
		t.Fatal(err)
	}
	wide := counters.NewSet("load.causes_walk", "load.pde$_miss", "unrelated")
	o := counters.NewObservation("wide", wide)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		o.Append([]float64{500 + rng.NormFloat64(), 100 + rng.NormFloat64(), 42})
	}
	v, err := m.TestObservation(o, DefaultConfidence, stats.Correlated, false)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Feasible {
		t.Fatal("projected observation should be feasible")
	}
}

func TestRestrict(t *testing.T) {
	m, err := ModelFromDSL("initial", initialModelSrc, pdeSet())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.Restrict(counters.NewSet("load.causes_walk"))
	if err != nil {
		t.Fatal(err)
	}
	if sub.Set.Len() != 1 {
		t.Fatalf("restricted set: %v", sub.Set.Events())
	}
	h, err := sub.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	// Single counter: only 0 <= causes_walk remains.
	if len(h.All()) != 1 {
		t.Fatalf("constraints: %v", h.All())
	}
}

func TestModelFromBadDSL(t *testing.T) {
	if _, err := ModelFromDSL("bad", "bogus;", nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestTestRegionSetMismatch(t *testing.T) {
	m, err := ModelFromDSL("initial", initialModelSrc, pdeSet())
	if err != nil {
		t.Fatal(err)
	}
	r := &stats.Region{Set: counters.NewSet("zz"), Mean: []float64{0}, Axes: [][]float64{{1}}, HalfWidths: []float64{1}}
	if _, err := m.TestRegion(r, false); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("want set mismatch error, got %v", err)
	}
}
