package stats

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/counters"
)

// jacobiMaxSweeps bounds the cyclic Jacobi iteration count.
const jacobiMaxSweeps = 100

// jacobiEigen is the reference eigensolver the tests hold eigenWork's
// decomposition to: the cyclic Jacobi rotation method, which region
// construction used before it deflated isolated rows and moved to
// tridiagonal QL. It is
// slow but simple and numerically robust. Ties between eigenvalues are
// ordered by sort.Slice, so their order is not specified. The input is
// not modified.
func jacobiEigen(m [][]float64) (*Eigen, error) {
	n := len(m)
	// Working copy a, row-major; accumulated rotations vt, stored
	// transposed so that row j is eigenvector j and each rotation updates
	// two contiguous rows.
	a := make([]float64, n*n)
	vt := make([]float64, n*n)
	for i := 0; i < n; i++ {
		copy(a[i*n:(i+1)*n], m[i])
		vt[i*n+i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if aij, aji := a[i*n+j], a[j*n+i]; math.Abs(aij-aji) > 1e-9*(1+math.Abs(aij)) {
				return nil, fmt.Errorf("stats: matrix not symmetric at (%d,%d): %g vs %g", i, j, aij, aji)
			}
		}
	}

	off := func() float64 {
		s := 0.0
		for i := 0; i < n; i++ {
			for _, x := range a[i*n+i+1 : (i+1)*n] {
				s += x * x
			}
		}
		return s
	}
	norm := 0.0
	for _, x := range a {
		norm += x * x
	}
	tol := 1e-24 * (norm + 1)

	for sweep := 0; sweep < jacobiMaxSweeps && off() > tol; sweep++ {
		for p := 0; p < n-1; p++ {
			ap, vp := a[p*n:(p+1)*n], vt[p*n:(p+1)*n]
			for q := p + 1; q < n; q++ {
				aq, vq := a[q*n:(q+1)*n], vt[q*n:(q+1)*n]
				apq := ap[q]
				if apq == 0 {
					continue
				}
				// Rotation angle from the standard Jacobi formulas.
				theta := (aq[q] - ap[p]) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Apply rotation to a (both sides) and accumulate in vt.
				for k := p; k < len(a); k += n {
					akp, akq := a[k], a[k+q-p]
					a[k] = c*akp - s*akq
					a[k+q-p] = s*akp + c*akq
				}
				for k := range ap {
					apk, aqk := ap[k], aq[k]
					ap[k] = c*apk - s*aqk
					aq[k] = s*apk + c*aqk
				}
				for k := range vp {
					vkp, vkq := vp[k], vq[k]
					vp[k] = c*vkp - s*vkq
					vq[k] = s*vkp + c*vkq
				}
			}
		}
	}

	eig := &Eigen{Values: make([]float64, n), Vectors: make([][]float64, n)}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = a[i*n+i]
	}
	sort.Slice(order, func(x, y int) bool { return diag[order[x]] > diag[order[y]] })
	for rank, col := range order {
		eig.Values[rank] = diag[col]
		eig.Vectors[rank] = vt[col*n : (col+1)*n : (col+1)*n]
	}
	return eig, nil
}

// referenceRegion builds o's region as NewRegion does, but through the
// covariance chain Scale(Covariance) and the cyclic Jacobi reference:
// region construction as it was before the eigensolver changed.
func referenceRegion(o *counters.Observation, confidence float64, mode NoiseMode) (*Region, error) {
	if err := checkRegionInput(o, confidence); err != nil {
		return nil, err
	}
	cov := Covariance(o.Samples)
	if mode == Independent {
		cov = Diagonal(cov)
	}
	eig, err := jacobiEigen(Scale(cov, 1/float64(o.Len())))
	if err != nil {
		return nil, err
	}
	n := o.Set.Len()
	vt := make([]float64, 0, n*n)
	for _, v := range eig.Vectors {
		vt = append(vt, v...)
	}
	chi2, err := ChiSquareQuantile(confidence, n)
	if err != nil {
		return nil, err
	}
	var d RegionDigest
	return regionFromEigen(o.Set, mode, confidence, o.Mean(), chi2, eig.Values, vt, d.Key(o, nil, confidence, mode)), nil
}

// Diagonal returns a copy of cov with off-diagonal entries zeroed — the
// independence assumption of naive confidence regions (Figure 3d, green).
func Diagonal(cov [][]float64) [][]float64 {
	out := make([][]float64, len(cov))
	for i := range cov {
		out[i] = make([]float64, len(cov[i]))
		out[i][i] = cov[i][i]
	}
	return out
}

// Scale returns cov scaled by s (e.g. the plug-in estimator Σ_Ȳ = Σ_Y / M).
func Scale(cov [][]float64, s float64) [][]float64 {
	out := make([][]float64, len(cov))
	for i := range cov {
		out[i] = make([]float64, len(cov[i]))
		for j := range cov[i] {
			out[i][j] = cov[i][j] * s
		}
	}
	return out
}
