package floatlp

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/simplex"
)

// randomProblem generates a mixed LE/GE/EQ feasibility problem: slab
// pairs like core.RegionLP's rows plus random equality rows like cone
// membership tests.
func randomProblem(rng *rand.Rand) *simplex.Problem {
	vars := 1 + rng.Intn(8)
	p := simplex.NewProblem(vars)
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

// refute certifies an infeasible claim the way core.Solver does: the
// tightened solve's basis first, then the untightened solve's.
func refute(w *Workspace, c *simplex.Certifier, p *simplex.Problem, out Outcome) (Outcome, bool) {
	if c.CertifyFarkasBasis(p, out.Basis) {
		return out, true
	}
	out = w.Untightened()
	return out, out.Status == Infeasible && c.CertifyFarkasBasis(p, out.Basis)
}

// TestHybridMatchesExactOnRandomLPs is the solver-equivalence property: for
// randomized LPs the certificate-filtered verdict must equal the exact
// solver's verdict whenever the filter makes a claim, and every claim's
// certificate must verify exactly.
func TestHybridMatchesExactOnRandomLPs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := NewWorkspace()
	ws := simplex.NewWorkspace()
	var c simplex.Certifier
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
			// A tightened solve may refute a feasible set too thin for
			// its margins; the untightened claim that follows may not.
			claims++
			out, ok := refute(w, &c, p, out)
			if exactFeasible && out.Status == Infeasible {
				t.Fatalf("trial %d: filter claims infeasible, exact says feasible", trial)
			}
			if !ok {
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
	var c simplex.Certifier
	var pointsChecked, basesChecked int
	for trial := 0; trial < 400 && (pointsChecked < 25 || basesChecked < 25); trial++ {
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
			out, ok := refute(w, &c, p, out)
			if !ok {
				continue
			}
			basesChecked++
			// Negating every row sign negates the whole dual, so its
			// right-hand side Σ qᵢbᵢ turns negative: always rejected.
			neg := make([]float64, len(out.Basis.Sign))
			for k, v := range out.Basis.Sign {
				neg[k] = -v
			}
			if c.CertifyFarkasBasis(p, simplex.FarkasBasis{Cols: out.Basis.Cols, Sign: neg, Scale: out.Basis.Scale}) {
				t.Fatalf("trial %d: basis with every sign flipped certified", trial)
			}
			// Dropping a basic column leaves a malformed basis.
			if c.CertifyFarkasBasis(p, simplex.FarkasBasis{Cols: out.Basis.Cols[1:], Sign: out.Basis.Sign, Scale: out.Basis.Scale}) {
				t.Fatalf("trial %d: truncated basis certified", trial)
			}
		}
	}
	if pointsChecked == 0 || basesChecked == 0 {
		t.Fatalf("corruption coverage too thin: %d points, %d bases", pointsChecked, basesChecked)
	}
}

// TestBasisCertificateMatchesExact is the solver-equivalence property of
// the basis-certificate tier: on randomized LPs, the exact dual of every
// infeasible claim's final phase-1 basis must verify only when the exact
// solver agrees the problem is infeasible — and it must verify almost
// always. Tampering with the
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
	var claims, basisOK, unitRejected, flipped int
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
		out, ok := refute(w, &c, p, out)
		if ok {
			basisOK++
		}
		b := out.Basis
		if out.Status != Infeasible {
			continue
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
	t.Logf("%d infeasible claims: basis certified %d; unit weights rejected %d; %d sign flips rejected",
		claims, basisOK, unitRejected, flipped)
	if claims == 0 || flipped == 0 {
		t.Fatalf("coverage too thin: %d claims, %d sign flips", claims, flipped)
	}
	if 10*basisOK < 9*claims {
		t.Fatalf("basis certified %d of %d claims", basisOK, claims)
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
