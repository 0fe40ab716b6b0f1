package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/counters"
)

// Eigen holds the eigendecomposition of a symmetric matrix: Values[i] is
// the i-th eigenvalue and Vectors[i] the corresponding unit eigenvector
// (stored as rows), sorted by descending eigenvalue.
type Eigen struct {
	Values  []float64
	Vectors [][]float64
}

// symmetricEigen decomposes the symmetric matrix m through eigenWork, the
// decomposition every region build runs (see eigenWork.decompose for the
// method). The input is not modified.
func symmetricEigen(m [][]float64) (*Eigen, error) {
	n := len(m)
	var w eigenWork
	a := w.matrix(n)
	for i := range m {
		copy(a[i*n:(i+1)*n], m[i])
	}
	if err := w.decompose(n); err != nil {
		return nil, err
	}
	eig := &Eigen{Values: w.values, Vectors: make([][]float64, n)}
	for r := range eig.Vectors {
		eig.Vectors[r] = w.vt[r*n : (r+1)*n : (r+1)*n]
	}
	return eig, nil
}

// randomSymmetric returns an n×n symmetric matrix with standard normal
// entries.
func randomSymmetric(rng *rand.Rand, n int) [][]float64 {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			x := rng.NormFloat64()
			a[i][j], a[j][i] = x, x
		}
	}
	return a
}

// pmPairObservation draws an observation shaped like a fresh /test
// request: 12 samples in ± pairs around a centre, so the covariance has
// rank at most 6, over n counters of which the first constant ones never
// move. The moving counters are non-negative integer combinations of a
// few random signatures, as μpath counts are, plus per-counter noise.
func pmPairObservation(rng *rand.Rand, n, constant int) *counters.Observation {
	events := make([]counters.Event, n)
	for j := range events {
		events[j] = counters.Event(fmt.Sprintf("c%02d", j))
	}
	o := counters.NewObservation("pm", counters.NewSet(events...))
	sigs := make([][]float64, 10)
	for i := range sigs {
		sigs[i] = make([]float64, n)
		for j := constant; j < n; j++ {
			if rng.Intn(3) == 0 {
				sigs[i][j] = float64(1 + rng.Intn(3))
			}
		}
	}
	center := make([]float64, n)
	weights := make([]float64, len(sigs))
	for i, sig := range sigs {
		weights[i] = float64(64 + rng.Intn(448))
		for j, s := range sig {
			center[j] += weights[i] * s
		}
	}
	for j := 0; j < constant; j++ {
		center[j] = float64(rng.Intn(2) * 1000)
	}
	for pair := 0; pair < 6; pair++ {
		delta := make([]float64, n)
		for i, sig := range sigs {
			q := math.Floor(weights[i] / 4)
			dw := float64(rng.Intn(int(2*q+1))) - q
			for j, s := range sig {
				delta[j] += dw * s
			}
		}
		for j := constant; j < n; j++ {
			if q := math.Floor(center[j] / 32); q > 0 {
				delta[j] += float64(rng.Intn(int(2*q+1))) - q
			}
		}
		plus, minus := make([]float64, n), make([]float64, n)
		for j := range delta {
			plus[j], minus[j] = center[j]+delta[j], center[j]-delta[j]
		}
		o.Append(plus)
		o.Append(minus)
	}
	return o
}

// sampleCovariance is the sample-mean covariance newRegion decomposes.
func sampleCovariance(o *counters.Observation, mode NoiseMode) [][]float64 {
	var w eigenWork
	w.covariance(o.Samples, o.Mean(), mode)
	n := o.Set.Len()
	a := make([][]float64, n)
	for i := range a {
		a[i] = w.a[i*n : (i+1)*n : (i+1)*n]
	}
	return a
}

// TestCovarianceMatchesChain: the covariance accumulated into the
// eigensolver's scratch is, bit for bit, Scale(Covariance(samples), 1/M),
// on Diagonal of the covariance in Independent mode.
func TestCovarianceMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	single := counters.NewObservation("single", counters.NewSet("a", "b"))
	single.Append([]float64{4, 7})
	for _, o := range []*counters.Observation{pmPairObservation(rng, 27, 10), builderObs("b", 5), single} {
		for _, mode := range []NoiseMode{Correlated, Independent} {
			cov := Covariance(o.Samples)
			if mode == Independent {
				cov = Diagonal(cov)
			}
			want := Scale(cov, 1/float64(o.Len()))
			got := sampleCovariance(o, mode)
			for i := range want {
				for j := range want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("%s %v (%d,%d): %g, chain %g", o.Label, mode, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

func frobenius(a [][]float64) float64 {
	s := 0.0
	for _, row := range a {
		for _, x := range row {
			s += x * x
		}
	}
	return math.Sqrt(s)
}

// checkEigen fails t unless eig decomposes a: the residual ‖AV − VΛ‖ and
// the orthonormality defect ‖VᵀV − I‖ are at round-off level, and the
// values are sorted descending.
func checkEigen(t *testing.T, label string, a [][]float64, eig *Eigen) {
	t.Helper()
	n := len(a)
	if len(eig.Values) != n || len(eig.Vectors) != n {
		t.Fatalf("%s: %d values and %d vectors for a %d×%d matrix", label, len(eig.Values), len(eig.Vectors), n, n)
	}
	norm := frobenius(a)
	tol := 1e-13 * float64(n+1) * norm
	resid := 0.0
	for k, v := range eig.Vectors {
		if k > 0 && eig.Values[k] > eig.Values[k-1] {
			t.Fatalf("%s: values not descending at %d: %v", label, k, eig.Values)
		}
		for i := 0; i < n; i++ {
			av := 0.0
			for j := 0; j < n; j++ {
				av += a[i][j] * v[j]
			}
			d := av - eig.Values[k]*v[i]
			resid += d * d
		}
	}
	if resid = math.Sqrt(resid); resid > tol {
		t.Fatalf("%s: residual ‖AV − VΛ‖ = %g over ‖A‖ = %g", label, resid, norm)
	}
	for p := 0; p < n; p++ {
		for q := p; q < n; q++ {
			dot := 0.0
			for k := 0; k < n; k++ {
				dot += eig.Vectors[p][k] * eig.Vectors[q][k]
			}
			if p == q {
				dot--
			}
			if math.Abs(dot) > 1e-13*float64(n+1) {
				t.Fatalf("%s: orthonormality (%d,%d) off by %g", label, p, q, dot)
			}
		}
	}
}

// checkValuesMatch fails t unless got's eigenvalues equal the reference's
// to within round-off of a.
func checkValuesMatch(t *testing.T, label string, a [][]float64, got, ref *Eigen) {
	t.Helper()
	tol := 1e-12*frobenius(a)*float64(len(a)+1) + 1e-300
	for i := range got.Values {
		if d := math.Abs(got.Values[i] - ref.Values[i]); d > tol {
			t.Fatalf("%s: eigenvalue %d is %g, reference %g", label, i, got.Values[i], ref.Values[i])
		}
	}
}

func TestSymmetricEigenEmptyAndScalar(t *testing.T) {
	eig, err := symmetricEigen(nil)
	if err != nil || len(eig.Values) != 0 || len(eig.Vectors) != 0 {
		t.Fatalf("0×0: %v %v", eig, err)
	}
	eig, err = symmetricEigen([][]float64{{-2.5}})
	if err != nil || eig.Values[0] != -2.5 || eig.Vectors[0][0] != 1 {
		t.Fatalf("1×1: %v %v", eig, err)
	}
}

// TestSymmetricEigenProperties holds the solver to the residual and
// orthonormality bounds, and to the Jacobi reference's eigenvalues, on
// dense random matrices of every width up to 30, on low-rank Gram
// matrices, and on matrices with a repeated eigenvalue.
func TestSymmetricEigenProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	check := func(label string, a [][]float64) {
		t.Helper()
		eig, err := symmetricEigen(a)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkEigen(t, label, a, eig)
		ref, err := jacobiEigen(a)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		checkValuesMatch(t, label, a, eig, ref)
	}
	for n := 2; n <= 30; n++ {
		check(fmt.Sprintf("dense %d", n), randomSymmetric(rng, n))
		// Rank r Gram matrix BBᵀ: n − r zero eigenvalues.
		r := 1 + rng.Intn(n)
		b := make([][]float64, n)
		for i := range b {
			b[i] = make([]float64, r)
			for j := range b[i] {
				b[i][j] = rng.NormFloat64()
			}
		}
		g := make([][]float64, n)
		for i := range g {
			g[i] = make([]float64, n)
			for j := range g[i] {
				for k := 0; k < r; k++ {
					g[i][j] += b[i][k] * b[j][k]
				}
			}
		}
		check(fmt.Sprintf("rank %d of %d", r, n), g)
	}
	// Q·diag(5,5,5,2,2,1,0,0)·Qᵀ for a random orthogonal Q, from the
	// Jacobi reference's eigenvectors of a random matrix.
	ref, err := jacobiEigen(randomSymmetric(rng, 8))
	if err != nil {
		t.Fatal(err)
	}
	lambda := []float64{5, 5, 5, 2, 2, 1, 0, 0}
	a := make([][]float64, 8)
	for i := range a {
		a[i] = make([]float64, 8)
		for j := range a[i] {
			for k, l := range lambda {
				a[i][j] += l * ref.Vectors[k][i] * ref.Vectors[k][j]
			}
		}
	}
	for i := range a {
		for j := 0; j < i; j++ {
			a[i][j] = a[j][i]
		}
	}
	check("repeated", a)
	eig, _ := symmetricEigen(a)
	for i, l := range lambda {
		if math.Abs(eig.Values[i]-l) > 1e-12 {
			t.Fatalf("repeated: eigenvalue %d is %g, want %g", i, eig.Values[i], l)
		}
	}
}

// TestSymmetricEigenIsolatedRowsExact: a row with no non-zero off-diagonal
// entry keeps its diagonal value and exact unit axis, bit for bit, as
// the Jacobi reference leaves it, whatever the rest of the matrix holds;
// tied eigenvalues come out in row order.
func TestSymmetricEigenIsolatedRowsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 9
	a := randomSymmetric(rng, n)
	isolated := map[int]float64{1: 0, 4: 0.3, 5: 0, 8: -1.25}
	for i, v := range isolated {
		for j := 0; j < n; j++ {
			a[i][j], a[j][i] = 0, 0
		}
		a[i][i] = v
	}
	eig, err := symmetricEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	checkEigen(t, "isolated", a, eig)
	ref, err := jacobiEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	checkValuesMatch(t, "isolated", a, eig, ref)
	seen := map[int]int{}
	for k, v := range eig.Vectors {
		for i, want := range isolated {
			if v[i] == 0 {
				continue
			}
			if v[i] != 1 || eig.Values[k] != want {
				t.Fatalf("isolated row %d: axis %v, value %g", i, v, eig.Values[k])
			}
			for j, x := range v {
				if j != i && x != 0 {
					t.Fatalf("isolated row %d: axis %v is not a unit vector", i, v)
				}
			}
			seen[i] = k
		}
	}
	if len(seen) != len(isolated) {
		t.Fatalf("unit axes for rows %v, want %v", seen, isolated)
	}
	if seen[1] > seen[5] {
		t.Fatalf("tied rows 1 and 5 at ranks %d and %d, want row order", seen[1], seen[5])
	}
}

// TestSymmetricEigenTieOrder: on a diagonal matrix (every row isolated, as
// in an Independent region) the axes are the unit vectors, by descending
// value and then by row.
func TestSymmetricEigenTieOrder(t *testing.T) {
	diag := []float64{2, 0, 3, 2, 0, 0, 3, 1}
	want := []int{2, 6, 0, 3, 7, 1, 4, 5}
	a := make([][]float64, len(diag))
	for i := range a {
		a[i] = make([]float64, len(diag))
		a[i][i] = diag[i]
	}
	eig, err := symmetricEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	for r, i := range want {
		if eig.Values[r] != diag[i] || eig.Vectors[r][i] != 1 {
			t.Fatalf("rank %d: value %g axis %v, want row %d", r, eig.Values[r], eig.Vectors[r], i)
		}
	}
}

// TestIndependentRegionAxes: an Independent region's axes are the exact
// unit vectors, and it equals the Jacobi reference's region bit for bit
// when no two counters have the same variance.
func TestIndependentRegionAxes(t *testing.T) {
	o := builderObs("ind", 3)
	r, err := NewRegion(o, 0.99, Independent)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceRegion(o, 0.99, Independent)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r.Axes, r.HalfWidths, r.Mean) != fmt.Sprint(ref.Axes, ref.HalfWidths, ref.Mean) {
		t.Fatalf("independent region differs from the reference:\n%v\n%v", r.Axes, ref.Axes)
	}
	for _, axis := range r.Axes {
		ones := 0
		for _, x := range axis {
			switch x {
			case 0:
			case 1:
				ones++
			default:
				ones = -1
			}
		}
		if ones != 1 {
			t.Fatalf("independent axis %v is not a unit vector", axis)
		}
	}
}

// TestPMPairCovariances: on rank-6 covariances of 12 samples in ± pairs
// at the widths fresh /test requests have (27–29 counters, about ten of
// them constant) the solver meets the residual and orthonormality bounds
// and the reference's eigenvalues, the constant counters keep exact unit
// axes, and the quantised axes are no denser than the reference's.
func TestPMPairCovariances(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var nnz, refNNZ int
	for trial := 0; trial < 30; trial++ {
		n := 27 + trial%3
		constant := 6 + rng.Intn(10)
		o := pmPairObservation(rng, n, constant)
		a := sampleCovariance(o, Correlated)
		label := fmt.Sprintf("trial %d (%d counters, %d constant)", trial, n, constant)
		eig, err := symmetricEigen(a)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		checkEigen(t, label, a, eig)
		ref, err := jacobiEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		checkValuesMatch(t, label, a, eig, ref)
		positive := 0
		for _, l := range eig.Values {
			if l > 1e-9*eig.Values[0] {
				positive++
			}
		}
		if positive > 6 {
			t.Fatalf("%s: %d positive eigenvalues from 6 ± pairs", label, positive)
		}
		r, err := NewRegion(o, 0.99, Correlated)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := referenceRegion(o, 0.99, Correlated)
		if err != nil {
			t.Fatal(err)
		}
		units := 0
		for i, axis := range r.Axes {
			unit := -1
			for j, x := range axis {
				if x != 0 {
					nnz++
					unit = j
					if x != 1 || unit >= constant {
						unit = constant
					}
				}
			}
			if unit >= 0 && unit < constant {
				units++
			}
			for _, x := range rr.Axes[i] {
				if x != 0 {
					refNNZ++
				}
			}
		}
		if units != constant {
			t.Fatalf("%s: %d exact unit axes on constant counters, want %d", label, units, constant)
		}
	}
	t.Logf("quantised axis non-zeros: %d, reference %d", nnz, refNNZ)
	if float64(nnz) > 1.05*float64(refNNZ) {
		t.Fatalf("quantised axes hold %d non-zeros, the reference's %d", nnz, refNNZ)
	}
}

// answers fails t unless f returns within 10 s.
func answers(t *testing.T, label string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no answer after 10 s", label)
	}
}

// TestSymmetricEigenHostile: a matrix with a non-finite entry is rejected
// before any iteration, and one with entries near the float64 range
// terminates with either finite eigenpairs or an error.
func TestSymmetricEigenHostile(t *testing.T) {
	for _, x := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := symmetricEigen([][]float64{{1, x}, {x, 1}}); !errors.Is(err, errNonFinite) {
			t.Fatalf("entry %g: err %v, want errNonFinite", x, err)
		}
		if _, err := symmetricEigen([][]float64{{x, 0}, {0, 1}}); !errors.Is(err, errNonFinite) {
			t.Fatalf("diagonal %g: err %v, want errNonFinite", x, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, scale := range []float64{1e150, 1e300, 1.7e308} {
		for n := 2; n <= 12; n++ {
			a := randomSymmetric(rng, n)
			for i := range a {
				for j := range a[i] {
					a[i][j] = math.Max(-math.MaxFloat64, math.Min(math.MaxFloat64, a[i][j]*scale))
				}
			}
			var eig *Eigen
			var err error
			answers(t, fmt.Sprintf("scale %g, %d×%d", scale, n, n), func() { eig, err = symmetricEigen(a) })
			if err != nil {
				continue
			}
			for k, v := range eig.Vectors {
				if math.IsNaN(eig.Values[k]) || math.IsInf(eig.Values[k], 0) {
					t.Fatalf("scale %g: eigenvalue %g", scale, eig.Values[k])
				}
				for _, x := range v {
					if math.IsNaN(x) || math.IsInf(x, 0) {
						t.Fatalf("scale %g: eigenvector %v", scale, v)
					}
				}
			}
		}
	}
}

// TestQLIterationCap: QL that needs more iterations than its cap returns
// an error instead of running on.
func TestQLIterationCap(t *testing.T) {
	a := randomSymmetric(rand.New(rand.NewSource(2)), 6)
	z := make([]float64, 0, 36)
	for _, row := range a {
		z = append(z, row...)
	}
	d, e := make([]float64, 6), make([]float64, 6)
	tred2(z, d, e, 6)
	if err := tql2(z, d, e, 6, 2); !errors.Is(err, errNotConverge) {
		t.Fatalf("tql2 capped at 2 iterations: err %v, want errNotConverge", err)
	}
}

// TestRegionHostileSamples: samples near ±1e300 or ±1.7e308 overflow the
// covariance, and region construction returns an error, promptly,
// instead of iterating on infinities.
func TestRegionHostileSamples(t *testing.T) {
	for _, big := range []float64{1e300, 1.7e308} {
		o := counters.NewObservation("hostile", counters.NewSet("a", "b", "c"))
		for i := 0; i < 12; i++ {
			s := float64(1 - 2*(i%2))
			o.Append([]float64{s * big, -s * big, big / float64(i+1)})
		}
		for _, mode := range []NoiseMode{Correlated, Independent} {
			label := fmt.Sprintf("samples near %g (%v)", big, mode)
			var err error
			answers(t, label, func() { _, err = NewRegion(o, 0.99, mode) })
			if !errors.Is(err, errNonFinite) {
				t.Fatalf("%s: err %v, want errNonFinite", label, err)
			}
		}
	}
}

// FuzzSymmetricEigen decodes a symmetric matrix of up to 12 rows from the
// input's float64 bits. Every finite matrix must get an answer; one whose
// non-zero entries lie within 1e±150 in magnitude must get a decomposition
// within the residual bounds whose eigenvalues match the Jacobi
// reference's.
func FuzzSymmetricEigen(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 240, 63})
	f.Add(make([]byte, 1+8*21))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 13
		data = data[1:]
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if len(data) < 8 {
					break
				}
				x := math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
				if math.IsNaN(x) || math.IsInf(x, 0) {
					x = 0
				}
				a[i][j], a[j][i] = x, x
			}
		}
		eig, err := symmetricEigen(a)
		for _, row := range a {
			for _, x := range row {
				if x != 0 && (math.Abs(x) > 1e150 || math.Abs(x) < 1e-150) {
					// Out of range for the bounds below: products of
					// entries and eigenvector components may overflow,
					// or lose precision as subnormals. An answer of
					// either kind will do.
					return
				}
			}
		}
		norm := frobenius(a)
		if err != nil {
			t.Fatalf("%d×%d matrix of norm %g: %v", n, n, norm, err)
		}
		checkEigen(t, "fuzz", a, eig)
		ref, err := jacobiEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		// Jacobi stops once the off-diagonal mass is below 1e-24·(‖A‖²+1),
		// so its eigenvalues carry that much error on small matrices.
		tol := 1e-11*norm*float64(n+1) + 1e-11
		for i := range eig.Values {
			if d := math.Abs(eig.Values[i] - ref.Values[i]); d > tol {
				t.Fatalf("eigenvalue %d is %g, reference %g", i, eig.Values[i], ref.Values[i])
			}
		}
	})
}

// BenchmarkRegionBuild times one region build (covariance,
// eigendecomposition, axes, half-widths) on the shape of a fresh /test
// request, 27 counters and 12 samples in ± pairs with ten constant
// counters, and on a full-rank one, 27 counters and 200 independent
// samples.
func BenchmarkRegionBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	full := counters.NewObservation("full", pmPairObservation(rng, 27, 0).Set)
	for i := 0; i < 200; i++ {
		row := make([]float64, 27)
		for j := range row {
			row[j] = 1000 + 50*rng.NormFloat64()
		}
		full.Append(row)
	}
	for _, bc := range []struct {
		name string
		o    *counters.Observation
	}{
		{"pm-pairs", pmPairObservation(rng, 27, 10)},
		{"full-rank", full},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rb := NewRegionBuilder()
			b.ReportAllocs()
			for b.Loop() {
				if _, err := rb.RegionKeyed(bc.o, nil, 0.99, Correlated, [16]byte{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
