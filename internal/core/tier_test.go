package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/floatlp"
	"repro/internal/simplex"
)

// chooser is the source of tierLPs' random choices: a *rand.Rand, or the
// fuzz input read by fuzzChoices.
type chooser interface{ Intn(n int) int }

// fuzzChoices reads each choice from its next two bytes (little-endian,
// reduced mod n), and 0 once the input is exhausted.
type fuzzChoices []byte

func (b *fuzzChoices) Intn(n int) int {
	v := 0
	for i := 0; i < 2 && len(*b) > 0; i++ {
		v |= int((*b)[0]) << (8 * i)
		*b = (*b)[1:]
	}
	return v % n
}

// recordChoices draws from rng and records every choice in fuzzChoices'
// encoding, so the recorded bytes decode to the same LPs.
type recordChoices struct {
	rng *rand.Rand
	out []byte
}

func (r *recordChoices) Intn(n int) int {
	v := r.rng.Intn(n)
	r.out = append(r.out, byte(v), byte(v>>8))
	return v
}

// tierLPs draws a bounded feasibility LP the way floatlp's property tests
// do — at most 8 variables (some free) and 12 rows of slab pairs, single
// LE/GE rows and EQ rows, with dyadic coefficients — and returns it with
// two bound-drifted copies: every right-hand side moves by δ/4, then 2δ/4.
// Two slab-pair variants probe the filter's range rows: zero-width slabs
// (lo = hi) and inverted pairs whose GE bound lies above the LE bound,
// which must stay unpaired.
func tierLPs(c chooser) []*simplex.Problem {
	type row struct {
		coeffs exact.Vec
		rel    simplex.Rel
		rhs    *big.Rat
	}
	vars := 1 + c.Intn(8)
	free := make([]bool, vars)
	for j := range free {
		free[j] = c.Intn(6) == 0
	}
	var rows []row
	for groups := 1 + c.Intn(6); groups > 0; groups-- {
		coeffs := exact.NewVec(vars)
		for j := range coeffs {
			coeffs[j].SetFrac64(int64(c.Intn(21)-10), int64(1<<uint(c.Intn(5))))
		}
		center := int64(c.Intn(400) - 200)
		// The row kind is kind mod 4, as when it was drawn mod 4, so
		// inputs recorded then decode to the same LPs; two of every ten
		// slab pairs take a variant.
		switch kind := c.Intn(40); {
		case kind%20 == 4: // zero-width slab pair
			rows = append(rows, row{coeffs, simplex.LE, big.NewRat(center, 4)},
				row{coeffs, simplex.GE, big.NewRat(center, 4)})
		case kind%20 == 8: // inverted pair
			width := int64(1 + c.Intn(30))
			rows = append(rows, row{coeffs, simplex.LE, big.NewRat(center-width, 4)},
				row{coeffs, simplex.GE, big.NewRat(center+width, 4)})
		case kind%4 == 0: // slab pair
			width := int64(1 + c.Intn(30))
			rows = append(rows, row{coeffs, simplex.LE, big.NewRat(center+width, 4)},
				row{coeffs, simplex.GE, big.NewRat(center-width, 4)})
		case kind%4 == 1:
			rows = append(rows, row{coeffs, simplex.LE, big.NewRat(center, 4)})
		case kind%4 == 2:
			rows = append(rows, row{coeffs, simplex.GE, big.NewRat(center, 4)})
		default:
			rows = append(rows, row{coeffs, simplex.EQ, big.NewRat(center, 8)})
		}
	}
	delta := big.NewRat(int64(c.Intn(9)-4), 4)
	lps := make([]*simplex.Problem, 3)
	shift := new(big.Rat)
	for k := range lps {
		p := simplex.NewProblem(vars)
		for j, f := range free {
			if f {
				p.MarkFree(j)
			}
		}
		for _, r := range rows {
			p.AddConstraint(r.coeffs, r.rel, new(big.Rat).Add(r.rhs, shift))
		}
		lps[k] = p
		shift.Add(shift, delta)
	}
	return lps
}

// FuzzTierAgreement decodes a bounded LP and its bound-drifted copies and
// decides each through every tier arrangement: the hybrid Solver (filter,
// certificates and exact fallback, carried across the steps), an
// exact-only Solver, the int64 kernel and the big.Rat reference tableau.
// All four must agree, and every filter certificate that verifies exactly
// must certify the reference verdict: the point, and the basis of the
// tightened solve and then of the untightened one, each of which must
// name one basic column per row.
func FuzzTierAgreement(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 99} {
		r := &recordChoices{rng: rand.New(rand.NewSource(seed))}
		tierLPs(r)
		f.Add(r.out)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzChoices(data)
		hybrid := NewSolver(&SolverStats{})
		exactOnly := &Solver{Exact: simplex.NewWorkspace()}
		kernel := simplex.NewWorkspace()
		ref := &simplex.Workspace{ForceBigRat: true}
		fl := floatlp.NewWorkspace()
		cert := simplex.NewCertifier()
		for k, p := range tierLPs(&in) {
			want := ref.SolveStatus(p) == simplex.Optimal
			if got := kernel.SolveStatus(p) == simplex.Optimal; got != want {
				t.Fatalf("step %d: int64 kernel says %v, reference %v", k, got, want)
			}
			if got := exactOnly.Feasible(p); got != want {
				t.Fatalf("step %d: exact-only Solver says %v, reference %v", k, got, want)
			}
			if got := hybrid.Feasible(p); got != want {
				t.Fatalf("step %d: hybrid Solver says %v, reference %v (%+v)", k, got, want, hybrid.Stats.Snapshot())
			}
			out := fl.Feasibility(p)
			switch out.Status {
			case floatlp.Feasible:
				if cert.CertifyPoint(p, out.Point) && !want {
					t.Fatalf("step %d: point certificate verified on an infeasible LP", k)
				}
			case floatlp.Infeasible:
				for ; out.Status == floatlp.Infeasible; out = fl.Untightened() {
					if len(out.Basis.Cols) != len(p.Constraints) {
						t.Fatalf("step %d: basis of %d columns for %d rows", k, len(out.Basis.Cols), len(p.Constraints))
					}
					if cert.CertifyFarkasBasis(p, out.Basis) && want {
						t.Fatalf("step %d: Farkas basis verified on a feasible LP", k)
					}
				}
			}
		}
	})
}
