package stats

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/counters"
)

func TestMeanAndCovariance(t *testing.T) {
	samples := [][]float64{{1, 2}, {3, 6}, {5, 10}}
	m := Mean(samples)
	if m[0] != 3 || m[1] != 6 {
		t.Fatalf("mean: %v", m)
	}
	cov := Covariance(samples)
	if math.Abs(cov[0][0]-4) > 1e-12 {
		t.Fatalf("var x: %g want 4", cov[0][0])
	}
	if math.Abs(cov[1][1]-16) > 1e-12 {
		t.Fatalf("var y: %g want 16", cov[1][1])
	}
	if math.Abs(cov[0][1]-8) > 1e-12 {
		t.Fatalf("cov: %g want 8", cov[0][1])
	}
	if cov[0][1] != cov[1][0] {
		t.Fatal("covariance not symmetric")
	}
}

func TestCovarianceSingleSample(t *testing.T) {
	cov := Covariance([][]float64{{1, 2}})
	if cov[0][0] != 0 || cov[0][1] != 0 {
		t.Fatalf("single-sample covariance should be zero: %v", cov)
	}
}

func TestDiagonal(t *testing.T) {
	cov := [][]float64{{4, 8}, {8, 16}}
	d := Diagonal(cov)
	if d[0][1] != 0 || d[1][0] != 0 || d[0][0] != 4 || d[1][1] != 16 {
		t.Fatalf("diagonal: %v", d)
	}
}

func TestCorrelation(t *testing.T) {
	// y = 2x exactly → ρ = 1.
	samples := [][]float64{{1, 2}, {3, 6}, {5, 10}}
	corr := Correlation(Covariance(samples))
	if math.Abs(corr[0][1]-1) > 1e-12 {
		t.Fatalf("ρ = %g, want 1", corr[0][1])
	}
	if corr[0][0] != 1 || corr[1][1] != 1 {
		t.Fatal("self correlation must be 1")
	}
}

func TestCorrelationZeroVariance(t *testing.T) {
	samples := [][]float64{{1, 5}, {2, 5}, {3, 5}}
	corr := Correlation(Covariance(samples))
	if corr[0][1] != 0 {
		t.Fatalf("zero-variance correlation should be 0, got %g", corr[0][1])
	}
}

func TestFractionPairsAbove(t *testing.T) {
	corr := [][]float64{
		{1, 0.95, 0.1},
		{0.95, 1, -0.92},
		{0.1, -0.92, 1},
	}
	got := FractionPairsAbove(corr, 0.9)
	if math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("got %g, want 2/3", got)
	}
	if FractionPairsAbove([][]float64{{1}}, 0.9) != 0 {
		t.Fatal("single counter has no pairs")
	}
}

func TestSymmetricEigenDiagonal(t *testing.T) {
	eig, err := symmetricEigen([][]float64{{3, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig.Values[0]-3) > 1e-10 || math.Abs(eig.Values[1]-1) > 1e-10 {
		t.Fatalf("values: %v", eig.Values)
	}
}

func TestSymmetricEigenKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1 with vectors (1,1)/√2, (1,-1)/√2.
	eig, err := symmetricEigen([][]float64{{2, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eig.Values[0]-3) > 1e-10 || math.Abs(eig.Values[1]-1) > 1e-10 {
		t.Fatalf("values: %v", eig.Values)
	}
	v := eig.Vectors[0]
	if math.Abs(math.Abs(v[0])-math.Abs(v[1])) > 1e-10 {
		t.Fatalf("leading eigenvector: %v", v)
	}
}

func TestSymmetricEigenReconstruction(t *testing.T) {
	// Property: A = Σ λᵢ eᵢ eᵢᵀ for random symmetric matrices.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(6) + 2
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				x := rng.NormFloat64()
				a[i][j] = x
				a[j][i] = x
			}
		}
		eig, err := symmetricEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				recon := 0.0
				for k := 0; k < n; k++ {
					recon += eig.Values[k] * eig.Vectors[k][i] * eig.Vectors[k][j]
				}
				if math.Abs(recon-a[i][j]) > 1e-8 {
					t.Fatalf("trial %d: reconstruction (%d,%d): %g vs %g", trial, i, j, recon, a[i][j])
				}
			}
		}
		// Eigenvectors are orthonormal.
		for p := 0; p < n; p++ {
			for q := p; q < n; q++ {
				dot := 0.0
				for k := 0; k < n; k++ {
					dot += eig.Vectors[p][k] * eig.Vectors[q][k]
				}
				want := 0.0
				if p == q {
					want = 1
				}
				if math.Abs(dot-want) > 1e-8 {
					t.Fatalf("trial %d: orthonormality (%d,%d): %g", trial, p, q, dot)
				}
			}
		}
	}
}

func TestChiSquareQuantileKnownValues(t *testing.T) {
	// Reference values from standard χ² tables.
	cases := []struct {
		p    float64
		df   int
		want float64
	}{
		{0.95, 1, 3.841},
		{0.99, 1, 6.635},
		{0.95, 2, 5.991},
		{0.99, 2, 9.210},
		{0.99, 10, 23.209},
		{0.99, 26, 45.642},
		{0.5, 4, 3.357},
	}
	for _, c := range cases {
		got, err := ChiSquareQuantile(c.p, c.df)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("χ²(%g, %d) = %g, want %g", c.p, c.df, got, c.want)
		}
	}
}

func TestChiSquareQuantileEdges(t *testing.T) {
	if _, err := ChiSquareQuantile(0.99, 0); err == nil {
		t.Fatal("df=0 should error")
	}
	if _, err := ChiSquareQuantile(1.0, 3); err == nil {
		t.Fatal("p=1 should error")
	}
	if q, err := ChiSquareQuantile(0, 3); err != nil || q != 0 {
		t.Fatalf("p=0 should give 0, got %g, %v", q, err)
	}
}

func TestChiSquareQuantileMonotone(t *testing.T) {
	prev := 0.0
	for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999} {
		q, err := ChiSquareQuantile(p, 8)
		if err != nil {
			t.Fatal(err)
		}
		if q <= prev {
			t.Fatalf("quantile not monotone at p=%g: %g <= %g", p, q, prev)
		}
		prev = q
	}
}

func makeObs(t *testing.T, rho float64, m int) *counters.Observation {
	t.Helper()
	set := counters.NewSet("x", "y")
	o := counters.NewObservation("synthetic", set)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < m; i++ {
		a := rng.NormFloat64()
		b := rho*a + math.Sqrt(1-rho*rho)*rng.NormFloat64()
		o.Append([]float64{100 + 10*a, 200 + 10*b})
	}
	return o
}

func TestRegionContainsMean(t *testing.T) {
	o := makeObs(t, 0.9, 200)
	for _, mode := range []NoiseMode{Correlated, Independent} {
		r, err := NewRegion(o, 0.99, mode)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Contains(r.Mean) {
			t.Fatalf("%v region must contain its mean", mode)
		}
	}
}

func TestCorrelatedRegionTighter(t *testing.T) {
	// With strongly correlated counters, the principal-axis box must have
	// smaller volume than the independent box (Figure 3d).
	o := makeObs(t, 0.95, 500)
	corr, err := NewRegion(o, 0.99, Correlated)
	if err != nil {
		t.Fatal(err)
	}
	ind, err := NewRegion(o, 0.99, Independent)
	if err != nil {
		t.Fatal(err)
	}
	if corr.LogVolume() >= ind.LogVolume() {
		t.Fatalf("correlated volume %g should be < independent %g",
			corr.LogVolume(), ind.LogVolume())
	}
}

func TestRegionRejectsBadInput(t *testing.T) {
	set := counters.NewSet("x")
	empty := counters.NewObservation("empty", set)
	if _, err := NewRegion(empty, 0.99, Correlated); err == nil {
		t.Fatal("empty observation should error")
	}
	o := counters.NewObservation("one", set)
	o.Append([]float64{1})
	if _, err := NewRegion(o, 1.5, Correlated); err == nil {
		t.Fatal("confidence > 1 should error")
	}
}

func TestRegionProject(t *testing.T) {
	o := makeObs(t, 0.5, 300)
	r, err := NewRegion(o, 0.99, Correlated)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, ok := r.Project("x")
	if !ok {
		t.Fatal("x should project")
	}
	if lo >= hi {
		t.Fatalf("degenerate interval [%g, %g]", lo, hi)
	}
	mean := r.Mean
	if mean[0] < lo || mean[0] > hi {
		t.Fatalf("mean %g outside [%g, %g]", mean[0], lo, hi)
	}
	if _, _, ok := r.Project("zz"); ok {
		t.Fatal("unknown counter should not project")
	}
}

func TestRegionShrinksWithSamples(t *testing.T) {
	// More samples → tighter region (the paper: "the confidence region can
	// be made tighter by obtaining more samples").
	small, err := NewRegion(makeObs(t, 0.5, 50), 0.99, Correlated)
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewRegion(makeObs(t, 0.5, 5000), 0.99, Correlated)
	if err != nil {
		t.Fatal(err)
	}
	if large.MaxHalfWidth() >= small.MaxHalfWidth() {
		t.Fatalf("region should shrink with samples: %g vs %g",
			large.MaxHalfWidth(), small.MaxHalfWidth())
	}
}

func TestScale(t *testing.T) {
	s := Scale([][]float64{{2, 4}, {4, 8}}, 0.5)
	if s[0][0] != 1 || s[1][1] != 4 {
		t.Fatalf("scale: %v", s)
	}
}

func TestRegionStatisticalCoverage(t *testing.T) {
	// Property: across repeated experiments, the 99% region's box captures
	// the true mean far more often than not (the box contains the
	// ellipsoid, so coverage is at least nominal; we assert a loose 90%).
	const trials = 60
	captured := 0
	truth := []float64{100, 200}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		set := counters.NewSet("x", "y")
		o := counters.NewObservation("cov", set)
		for i := 0; i < 40; i++ {
			a := rng.NormFloat64()
			o.Append([]float64{truth[0] + 5*a + rng.NormFloat64(), truth[1] + 10*a + rng.NormFloat64()})
		}
		r, err := NewRegion(o, 0.99, Correlated)
		if err != nil {
			t.Fatal(err)
		}
		if r.Contains(truth) {
			captured++
		}
	}
	if captured < trials*9/10 {
		t.Fatalf("coverage too low: %d/%d", captured, trials)
	}
}

// Contains reports whether v lies inside the bounding box.
func (r *Region) Contains(v []float64) bool {
	n := len(r.Mean)
	for i, axis := range r.Axes {
		dot := 0.0
		for j := 0; j < n; j++ {
			dot += axis[j] * (v[j] - r.Mean[j])
		}
		if math.Abs(dot) > r.HalfWidths[i]+1e-9*(1+math.Abs(r.HalfWidths[i])) {
			return false
		}
	}
	return true
}
