package floatlp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/simplex"
)

// randomRangeProblem generates a feasibility problem in the range form's
// reach: slab pairs (LE then GE, same coefficients) that merge into range
// rows, mixed with unpaired LE and GE rows, LE/GE neighbours with
// different coefficients and inverted pairs whose GE bound lies above the
// LE bound — all of which must stay unpaired — over variables of which
// some are free.
func randomRangeProblem(rng *rand.Rand) *simplex.Problem {
	vars := 1 + rng.Intn(8)
	p := simplex.NewProblem(vars)
	for j := 0; j < vars; j++ {
		if rng.Intn(4) == 0 {
			p.MarkFree(j)
		}
	}
	coeffs := func() exact.Vec {
		c := exact.NewVec(vars)
		for j := range c {
			c[j].SetFrac64(int64(rng.Intn(21)-10), int64(1<<uint(rng.Intn(5))))
		}
		return c
	}
	for groups := 1 + rng.Intn(7); groups > 0; groups-- {
		a := coeffs()
		center := int64(rng.Intn(400) - 200)
		switch k := rng.Intn(8); {
		case k < 4: // slab pair
			width := int64(1 + rng.Intn(30))
			p.AddConstraint(a, simplex.LE, big.NewRat(center+width, 4))
			p.AddConstraint(a, simplex.GE, big.NewRat(center-width, 4))
		case k == 4:
			p.AddConstraint(a, simplex.LE, big.NewRat(center, 4))
		case k == 5:
			p.AddConstraint(a, simplex.GE, big.NewRat(center, 4))
		case k == 6: // LE then GE on different rows
			p.AddConstraint(a, simplex.LE, big.NewRat(center+8, 4))
			p.AddConstraint(coeffs(), simplex.GE, big.NewRat(center-8, 4))
		default: // inverted pair: infeasible on its own
			width := int64(1 + rng.Intn(8))
			p.AddConstraint(a, simplex.LE, big.NewRat(center-width, 4))
			p.AddConstraint(a, simplex.GE, big.NewRat(center+width, 4))
		}
	}
	return p
}

// TestRangeRowsMatchExact is the range form's property test. On random
// range LPs with free variables and mixed unpaired rows, every infeasible
// claim's basis (tightened, then untightened) names one basic column per
// original LE/GE row and certifies only where the exact solver refutes;
// every feasible claim's point certifies; only LE rows followed by a GE
// row with equal coefficients and bounds in order merge; and merging
// actually happens.
func TestRangeRowsMatchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewWorkspace()
	ws := simplex.NewWorkspace()
	var c simplex.Certifier
	trials := 3000
	if testing.Short() {
		trials = 600
	}
	var paired, refuted, certified, points, inconclusive int
	for trial := 0; trial < trials; trial++ {
		p := randomRangeProblem(rng)
		want := ws.SolveStatus(p) == simplex.Optimal
		out := w.Feasibility(p)
		paired += w.nOrig - w.m
		for r := 0; r < w.m; r++ {
			if w.kind[r] != rowRange {
				continue
			}
			i := w.orig[r]
			if p.Constraints[i].Rel != simplex.LE || p.Constraints[i+1].Rel != simplex.GE || w.lo[r] > w.hi[r] {
				t.Fatalf("trial %d: rows %d, %d merged into a range row [%g, %g]", trial, i, i+1, w.lo[r], w.hi[r])
			}
			for j := range p.Constraints[i].Coeffs {
				if p.Constraints[i].Coeffs[j].Cmp(p.Constraints[i+1].Coeffs[j]) != 0 {
					t.Fatalf("trial %d: rows %d, %d merged with different coefficients", trial, i, i+1)
				}
			}
		}
		switch out.Status {
		case Feasible:
			if !want {
				t.Fatalf("trial %d: feasible claim on an infeasible LP", trial)
			}
			if !c.CertifyPoint(p, out.Point) {
				t.Fatalf("trial %d: feasible point %v failed certification", trial, out.Point)
			}
			points++
		case Infeasible:
			refuted++
			for attempt := 0; attempt < 2 && out.Status == Infeasible; attempt++ {
				if len(out.Basis.Cols) != len(p.Constraints) {
					t.Fatalf("trial %d: basis of %d columns for %d rows", trial, len(out.Basis.Cols), len(p.Constraints))
				}
				if c.CertifyFarkasBasis(p, out.Basis) {
					if want {
						t.Fatalf("trial %d: basis certified a feasible LP", trial)
					}
					certified++
					break
				}
				out = w.Untightened()
			}
		default:
			inconclusive++
		}
	}
	t.Logf("%d trials: %d rows paired; %d feasible points certified, %d refutations claimed (%d certified), %d inconclusive",
		trials, paired, points, refuted, certified, inconclusive)
	if paired == 0 || points == 0 || refuted == 0 {
		t.Fatalf("coverage too thin: %d paired rows, %d points, %d refutations", paired, points, refuted)
	}
	if 10*certified < 9*refuted {
		t.Fatalf("bases certified %d of %d refutations", certified, refuted)
	}
}

// structuredProblem builds a region-shaped LP: for each axis eᵢ one slab
// pair loᵢ ≤ (eᵢ·G)·f ≤ hiᵢ over f ≥ 0, its coefficients summed over each
// generator's non-zero components in order (as core.RegionLP does), with
// dyadic axes and generators so every coefficient is an exact float. One
// in four has enough generators for partial pricing.
func structuredProblem(rng *rand.Rand) (*simplex.Problem, Structure) {
	nc := 2 + rng.Intn(6)
	gens := 1 + rng.Intn(12)
	if rng.Intn(4) == 0 {
		gens = partialMin + rng.Intn(64)
	}
	var s Structure
	for j := gens; j > 0; j-- {
		var g Sparse
		for k := 0; k < nc; k++ {
			if rng.Intn(3) == 0 {
				g.Idx = append(g.Idx, k)
				g.Val = append(g.Val, float64(1+rng.Intn(3)))
			}
		}
		s.Gens = append(s.Gens, g)
	}
	p := simplex.NewProblem(len(s.Gens))
	dots := make([]float64, len(s.Gens))
	for i := 1 + rng.Intn(nc); i > 0; i-- {
		axis := make([]float64, nc)
		for k := range axis {
			axis[k] = math.Ldexp(float64(rng.Intn(33)-16), -4)
		}
		s.Axes = append(s.Axes, axis)
		for j, g := range s.Gens {
			dots[j] = 0
			for t, k := range g.Idx {
				dots[j] += axis[k] * g.Val[t]
			}
		}
		center := float64(rng.Intn(64) - 16)
		width := float64(rng.Intn(16)) / 4
		if err := p.AddFloatRow(simplex.LE, dots, center+width); err != nil {
			panic(err)
		}
		if err := p.AddFloatRow(simplex.GE, dots, center-width); err != nil {
			panic(err)
		}
	}
	return p, s
}

// TestStructuredPricingMatchesExact: pricing through a problem's
// axis·generator factorisation decides the same LPs the exact solver does,
// with certificates, on narrow and on partially priced wide problems, and
// a hint that does not fit the problem is ignored rather than trusted.
func TestStructuredPricingMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	w := NewWorkspace()
	ws := simplex.NewWorkspace()
	var c simplex.Certifier
	var structured, claims, certified int
	for trial := 0; trial < 1500; trial++ {
		p, s := structuredProblem(rng)
		if trial%5 == 4 {
			s.Axes = s.Axes[1:] // one axis short: must not be used
		}
		want := ws.SolveStatus(p) == simplex.Optimal
		out := w.FeasibilityStructured(p, s)
		if w.fits(s) {
			if trial%5 == 4 {
				t.Fatalf("trial %d: a hint with %d axes for %d rows fits", trial, len(s.Axes), w.m)
			}
			structured++
		}
		switch out.Status {
		case Feasible:
			claims++
			if !want {
				t.Fatalf("trial %d: feasible claim on an infeasible LP", trial)
			}
			if c.CertifyPoint(p, out.Point) {
				certified++
			}
		case Infeasible:
			// The tightened solve may refute a feasible LP whose feasible
			// set is too thin for its margins; its basis cannot certify,
			// and the untightened solve must then not claim infeasible.
			claims++
			out, ok := refute(w, &c, p, out)
			if want && out.Status == Infeasible {
				t.Fatalf("trial %d: infeasible claim (certified %v) on a feasible LP", trial, ok)
			}
			if ok {
				certified++
			}
		}
	}
	t.Logf("%d structured solves: %d claims, %d certified", structured, claims, certified)
	if structured == 0 || 10*certified < 9*claims {
		t.Fatalf("coverage: %d structured solves, %d of %d claims certified", structured, certified, claims)
	}
}
