package simplex_test

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exact"
	"repro/internal/simplex"
	"repro/internal/simplex/simplexref"
)

// TestAddFloatRowMatchesRationalRows pins the integer-native build against
// the rational one on rows of exact float64 values, extremes included
// (subnormals, 1e300, exponent spreads that force wide rows, zero rows):
// both give the same integer form, entry for entry and scale for scale,
// the native rational view equals the floats' exact values, and the
// kernel and the big.Rat reference tableau agree on the native problem.
func TestAddFloatRowMatchesRationalRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	extremes := []float64{5e-324, -1e300, math.MaxFloat64, 0x1p-1074, 3, -0.5, math.Copysign(0, -1)}
	val := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return extremes[rng.Intn(len(extremes))]
		}
		return math.Ldexp(float64(rng.Intn(4001)-2000), rng.Intn(40)-24)
	}
	kernel := simplex.NewWorkspace()
	wide := 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(5)
		native, rational := simplex.NewProblem(n), simplex.NewProblem(n)
		var rows [][]float64
		for i := 0; i < 1+rng.Intn(6); i++ {
			rel := simplex.Rel(rng.Intn(3))
			row := make([]float64, n+1)
			for j := range row {
				row[j] = val()
			}
			if err := native.AddFloatRow(rel, row[:n], row[n]); err != nil {
				t.Fatal(err)
			}
			coeffs := exact.NewVec(n)
			for j := range coeffs {
				coeffs[j].SetFloat64(row[j])
			}
			rational.AddConstraint(coeffs, rel, new(big.Rat).SetFloat64(row[n]))
			rows = append(rows, row)
		}
		rat := native.RatConstraints()
		for i, row := range rows {
			a, s, ok := native.IntRow(i)
			wa, ws, wok := rational.IntRow(i)
			if ok != wok || s != ws || !slices.Equal(a, wa) {
				t.Fatalf("trial %d row %d: native %v·%v (%v), rational %v·%v (%v)", trial, i, s, a, ok, ws, wa, wok)
			}
			if !ok {
				wide++
				ba, bs := native.BigIntRow(i)
				wba, wbs := rational.BigIntRow(i)
				if bs.Cmp(wbs) != 0 || !slices.EqualFunc(ba, wba, func(x, y *big.Int) bool { return x.Cmp(y) == 0 }) {
					t.Fatalf("trial %d row %d: wide forms differ: %v·%v vs %v·%v", trial, i, bs, ba, wbs, wba)
				}
			}
			for j, v := range row {
				got := rat[i].RHS
				if j < n {
					got = rat[i].Coeffs[j]
				}
				if got.Cmp(new(big.Rat).SetFloat64(v)) != 0 {
					t.Fatalf("trial %d row %d entry %d: rational view %v, want %g", trial, i, j, got, v)
				}
			}
		}
		if got, want := kernel.SolveStatus(native), simplexref.Solve(native).Status; got != want {
			t.Fatalf("trial %d: kernel %v, reference %v", trial, got, want)
		}
	}
	if wide == 0 {
		t.Fatal("no wide rows drawn: the big-number paths went untested")
	}
}

// TestIntegerNativeRowsAreHidden: an integer-native row exposes only its
// relation until RatConstraints fills in the rational view, a rational row
// added beside it keeps its own view, and the mixed problem solves like
// the big.Rat reference on both sides of feasibility.
func TestIntegerNativeRowsAreHidden(t *testing.T) {
	p := simplex.NewProblem(2)
	if err := p.AddFloatRow(simplex.LE, []float64{0.5, 1.5}, 2); err != nil {
		t.Fatal(err)
	}
	if c := p.Constraints[0]; c.Rel != simplex.LE || len(c.Coeffs) != 0 || c.RHS != nil {
		t.Fatalf("hidden row %+v", c)
	}
	half, _ := exact.MakeRat64(1, 2)
	if a, s, ok := p.IntRow(0); !ok || !slices.Equal(a, []int64{1, 3, 4}) || s != half {
		t.Fatalf("IntRow = %v·%v, %v", s, a, ok)
	}
	if err := p.AddFloatRow(simplex.GE, []float64{math.NaN(), 0}, 0); err == nil {
		t.Fatal("non-finite coefficient accepted")
	}
	if len(p.Constraints) != 1 {
		t.Fatalf("a rejected row was added: %d rows", len(p.Constraints))
	}

	// x ≥ 3 beside 0.5x + 1.5y ≤ 2 is feasible (x = 3, y = 0).
	three := big.NewRat(3, 1)
	p.AddConstraint(exact.VecFromInts(1, 0), simplex.GE, three)
	if c := p.Constraints[1]; c.RHS.Cmp(three) != 0 || c.Coeffs[0].Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatalf("rational row's view %+v", c)
	}
	ws := simplex.NewWorkspace()
	if got, want := ws.SolveStatus(p), simplexref.Solve(p).Status; got != simplex.Optimal || want != got {
		t.Fatalf("mixed feasible problem: kernel %v, reference %v", got, want)
	}
	rat := p.RatConstraints()
	if rat[0].RHS.Cmp(big.NewRat(2, 1)) != 0 || rat[0].Coeffs[1].Cmp(big.NewRat(3, 2)) != 0 || rat[1].RHS.Cmp(three) != 0 {
		t.Fatalf("rational view %v", rat)
	}

	// A float row x ≥ 5 makes it infeasible: 0.5·5 > 2.
	if err := p.AddFloatRow(simplex.GE, []float64{1, 0}, 5); err != nil {
		t.Fatal(err)
	}
	if got, want := ws.SolveStatus(p), simplexref.Solve(p).Status; got != simplex.Infeasible || want != got {
		t.Fatalf("mixed infeasible problem: kernel %v, reference %v", got, want)
	}
}
