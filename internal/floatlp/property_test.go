package floatlp

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/simplex"
)

// randomProblem generates a mixed LE/GE/EQ feasibility problem with
// occasional free variables: slab pairs like core.RegionLP's rows plus
// random equality rows like cone membership tests.
func randomProblem(rng *rand.Rand) *simplex.Problem {
	vars := 1 + rng.Intn(8)
	p := simplex.NewProblem(vars)
	for j := 0; j < vars; j++ {
		if rng.Intn(6) == 0 {
			p.MarkFree(j)
		}
	}
	rows := 1 + rng.Intn(6)
	for i := 0; i < rows; i++ {
		coeffs := exact.NewVec(vars)
		for j := range coeffs {
			coeffs[j].SetFrac64(int64(rng.Intn(21)-10), int64(1<<uint(rng.Intn(5))))
		}
		center := int64(rng.Intn(400) - 200)
		switch rng.Intn(4) {
		case 0: // slab pair
			width := int64(1 + rng.Intn(30))
			p.AddConstraint(coeffs, simplex.LE, big.NewRat(center+width, 4))
			p.AddConstraint(coeffs, simplex.GE, big.NewRat(center-width, 4))
		case 1:
			p.AddConstraint(coeffs, simplex.LE, big.NewRat(center, 4))
		case 2:
			p.AddConstraint(coeffs, simplex.GE, big.NewRat(center, 4))
		case 3:
			p.AddConstraint(coeffs, simplex.EQ, big.NewRat(center, 8))
		}
	}
	return p
}

// TestHybridMatchesExactOnRandomLPs is the solver-equivalence property: for
// randomized LPs the certificate-filtered verdict must equal the exact
// solver's verdict whenever the filter makes a claim, and every claim's
// certificate must verify exactly.
func TestHybridMatchesExactOnRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := NewWorkspace()
	ws := simplex.NewWorkspace()
	trials := 500
	if testing.Short() {
		trials = 120
	}
	var claims, inconclusive, certFail int
	for trial := 0; trial < trials; trial++ {
		p := randomProblem(rng)
		exactFeasible := ws.SolveStatus(p) == simplex.Optimal
		out := w.Feasibility(p)
		switch out.Status {
		case Feasible:
			claims++
			if !exactFeasible {
				t.Fatalf("trial %d: filter claims feasible, exact says infeasible", trial)
			}
			if !simplex.CertifyPoint(p, out.Point) {
				certFail++
			}
		case Infeasible:
			claims++
			if exactFeasible {
				t.Fatalf("trial %d: filter claims infeasible, exact says feasible", trial)
			}
			if !simplex.CertifyFarkas(p, out.Ray) {
				certFail++
			}
		default:
			inconclusive++
		}
	}
	t.Logf("%d trials: %d claims, %d inconclusive, %d certification failures (all safe fallbacks)",
		trials, claims, inconclusive, certFail)
	if claims == 0 {
		t.Fatal("filter never made a claim — the float tier is doing nothing")
	}
}

// TestCorruptedCertificatesRejected flips genuine certificates into invalid
// ones and checks that the exact checkers refuse them.
func TestCorruptedCertificatesRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	w := NewWorkspace()
	ws := simplex.NewWorkspace()
	var pointsChecked, raysChecked int
	for trial := 0; trial < 400 && (pointsChecked < 25 || raysChecked < 25); trial++ {
		p := randomProblem(rng)
		out := w.Feasibility(p)
		switch out.Status {
		case Feasible:
			if !simplex.CertifyPoint(p, out.Point) {
				continue
			}
			pointsChecked++
			// Corrupt one coordinate grossly; unless the problem is
			// degenerate in that direction, verification must fail — and a
			// pass is only acceptable if the corrupted point is genuinely
			// feasible, which CheckPoint establishes exactly by definition.
			bad := make([]float64, len(out.Point))
			copy(bad, out.Point)
			j := rng.Intn(len(bad))
			bad[j] += 1e6
			if simplex.CertifyPoint(p, bad) {
				// Re-verify the claim with the exact solver: the perturbed
				// point must then really satisfy every constraint.
				rx := make(exact.Vec, len(bad))
				for k, v := range bad {
					rx[k] = new(big.Rat)
					rx[k].SetFloat64(v)
				}
				if !simplex.CheckPoint(p, rx) {
					t.Fatalf("trial %d: corrupted point certified", trial)
				}
			}
		case Infeasible:
			if !simplex.CertifyFarkas(p, out.Ray) {
				continue
			}
			raysChecked++
			// Flipping the ray's sign breaks the sign conditions.
			bad := make([]float64, len(out.Ray))
			for k, v := range out.Ray {
				bad[k] = -v
			}
			if simplex.CertifyFarkas(p, bad) && ws.SolveStatus(p) == simplex.Optimal {
				t.Fatalf("trial %d: corrupted ray certified against feasible problem", trial)
			}
			// Zeroing the ray must always be rejected.
			for k := range bad {
				bad[k] = 0
			}
			if simplex.CertifyFarkas(p, bad) {
				t.Fatalf("trial %d: zero ray certified", trial)
			}
		}
	}
	if pointsChecked == 0 || raysChecked == 0 {
		t.Fatalf("corruption coverage too thin: %d points, %d rays", pointsChecked, raysChecked)
	}
}

// TestBasisCertificateMatchesExact is the solver-equivalence property of
// the basis-certificate tier: on randomized LPs, the exact dual of every
// infeasible claim's final phase-1 basis must verify only when the exact
// solver agrees the problem is infeasible — and it must verify almost
// always, including where the rounded ray does not. Tampering with the
// basis must never certify a feasible problem, and a flipped sign on a
// row held by a basic artificial must always be rejected: it reverses
// that multiplier's sign, which an inequality row cannot carry.
func TestBasisCertificateMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := NewWorkspace()
	ws := simplex.NewWorkspace()
	var c simplex.Certifier
	trials := 2000
	if testing.Short() {
		trials = 500
	}
	var claims, rayOK, basisOK, unitRejected, flipped int
	var last simplex.FarkasBasis
	for trial := 0; trial < trials; trial++ {
		p := randomProblem(rng)
		exactFeasible := ws.SolveStatus(p) == simplex.Optimal
		if exactFeasible {
			// A basis from another problem, forced onto this one's shape:
			// whatever its dual, a feasible problem has no certificate.
			if len(last.Cols) > 0 {
				if c.CertifyFarkasBasis(p, reshape(last, p, rng)) {
					t.Fatalf("trial %d: foreign basis certified a feasible problem", trial)
				}
			}
			continue
		}
		out := w.Feasibility(p)
		if out.Status != Infeasible {
			continue
		}
		claims++
		if simplex.CertifyFarkas(p, out.Ray) {
			rayOK++
		}
		b := out.Basis
		if c.CertifyFarkasBasis(p, b) {
			basisOK++
		}
		last = simplex.FarkasBasis{
			Cols:  append([]int(nil), b.Cols...),
			Sign:  append([]float64(nil), b.Sign...),
			Scale: append([]float64(nil), b.Scale...),
		}
		unit := make([]float64, len(b.Scale))
		for i := range unit {
			unit[i] = 1
		}
		if !c.CertifyFarkasBasis(p, simplex.FarkasBasis{Cols: b.Cols, Sign: b.Sign, Scale: unit}) {
			unitRejected++
		}
		m := len(p.Constraints)
		for _, col := range b.Cols {
			r := col - p.NumVars - m
			if r < 0 || p.Constraints[r].Rel == simplex.EQ {
				continue
			}
			sign := append([]float64(nil), b.Sign...)
			sign[r] = -sign[r]
			if c.CertifyFarkasBasis(p, simplex.FarkasBasis{Cols: b.Cols, Sign: sign, Scale: b.Scale}) {
				t.Fatalf("trial %d: basis with row %d's sign flipped certified", trial, r)
			}
			flipped++
			break
		}
	}
	t.Logf("%d infeasible claims: ray certified %d, basis certified %d; unit weights rejected %d; %d sign flips rejected",
		claims, rayOK, basisOK, unitRejected, flipped)
	if claims == 0 || flipped == 0 {
		t.Fatalf("coverage too thin: %d claims, %d sign flips", claims, flipped)
	}
	if basisOK < rayOK || 10*basisOK < 9*claims {
		t.Fatalf("basis certified %d of %d claims (ray: %d)", basisOK, claims, rayOK)
	}
}

// reshape forces b onto p's shape: random column ids, b's signs and
// scales where its rows reach and random ones beyond.
func reshape(b simplex.FarkasBasis, p *simplex.Problem, rng *rand.Rand) simplex.FarkasBasis {
	m := len(p.Constraints)
	out := simplex.FarkasBasis{Cols: make([]int, m), Sign: make([]float64, m), Scale: make([]float64, m)}
	for i := range out.Cols {
		out.Cols[i] = rng.Intn(p.NumVars + 2*m)
		out.Sign[i] = float64(1 - 2*rng.Intn(2))
		out.Scale[i] = float64(1+rng.Intn(8)) / 4
		if i < len(b.Cols) {
			out.Sign[i], out.Scale[i] = b.Sign[i], b.Scale[i]
		}
	}
	return out
}
