package stats

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/counters"
)

// NoiseMode selects how a confidence region treats cross-counter structure.
type NoiseMode int

// Noise-handling modes (Figure 3d).
const (
	// Correlated exploits the full covariance matrix: the bounding box is
	// aligned with the principal axes of the data, producing the tight red
	// regions of Figure 3d.
	Correlated NoiseMode = iota
	// Independent zeroes all covariances — the loose, axis-aligned green
	// regions of Figure 3d used by naive tools.
	Independent
)

func (m NoiseMode) String() string {
	if m == Independent {
		return "independent"
	}
	return "correlated"
}

// Region is a counter confidence region: the principal-axis bounding box of
// the confidence ellipsoid
//
//	{ v : (v−Ȳ)ᵀ Σ_Ȳ⁻¹ (v−Ȳ) ≤ χ²_{N,1−α} }
//
// encoded as |eᵢ·(v−Ȳ)| ≤ √(λᵢ·χ²) per eigenpair (λᵢ, eᵢ) of Σ_Ȳ
// (Figure 5c, Appendix A).
//
// A region is immutable once built: the engine shares one instance among
// every verdict over the same data, and Key is fixed at construction.
type Region struct {
	Set        *counters.Set
	Mode       NoiseMode
	Confidence float64
	Mean       []float64
	Axes       [][]float64 // unit eigenvectors eᵢ, rows
	HalfWidths []float64   // √(λᵢ·χ²), same order as Axes

	key [16]byte // Key, set by newRegion; zero on a hand-built region
}

// NewRegion builds the confidence region of an observation at the given
// confidence level (the paper fixes 99%). The sample-mean covariance is the
// plug-in estimator Σ_Ȳ = Σ_Y / M.
//
// Callers evaluating many observations (or the same observations against
// many models) should go through the engine, which memoises both the χ²
// quantiles and the finished regions.
func NewRegion(o *counters.Observation, confidence float64, mode NoiseMode) (*Region, error) {
	return newRegion(o, confidence, mode, ChiSquareQuantile, pooledKey(o, nil, confidence, mode))
}

// eigenPool recycles the covariance and eigendecomposition scratch of
// region construction.
var eigenPool = sync.Pool{New: func() any { return new(eigenWork) }}

// newRegion is the shared construction core; quantile supplies the χ²
// quantile (memoised or not, the builder's choice) and key is
// RegionDigest.Key of exactly what the region is built from.
func newRegion(o *counters.Observation, confidence float64, mode NoiseMode, quantile func(p float64, df int) (float64, error), key [16]byte) (*Region, error) {
	if err := checkRegionInput(o, confidence); err != nil {
		return nil, err
	}
	w := eigenPool.Get().(*eigenWork)
	defer eigenPool.Put(w)
	mean := o.Mean()
	w.covariance(o.Samples, mean, mode)
	if err := w.decompose(len(mean)); err != nil {
		return nil, fmt.Errorf("observation %q covariance: %w", o.Label, err)
	}
	chi2, err := quantile(confidence, len(mean))
	if err != nil {
		return nil, err
	}
	return regionFromEigen(o.Set, mode, confidence, mean, chi2, w.values, w.vt, key), nil
}

// checkRegionInput rejects what no region can be built from.
func checkRegionInput(o *counters.Observation, confidence float64) error {
	if o.Len() == 0 {
		return fmt.Errorf("stats: observation %q has no samples", o.Label)
	}
	if confidence <= 0 || confidence >= 1 {
		return fmt.Errorf("stats: confidence must be in (0,1), got %g", confidence)
	}
	return nil
}

// covariance fills w's matrix with the sample-mean covariance Σ_Ȳ of
// samples, bit for bit what Scale(Covariance(samples), 1/M) computes (on
// Diagonal of the covariance in Independent mode), without the three
// intermediate matrices.
func (w *eigenWork) covariance(samples [][]float64, mean []float64, mode NoiseMode) {
	n, m := len(mean), len(samples)
	a := w.matrix(n)
	if m < 2 {
		return
	}
	for _, row := range samples {
		row = row[:n]
		for i, x := range row {
			di := x - mean[i]
			if di == 0 {
				continue
			}
			if mode == Independent {
				a[i*n+i] += di * di
				continue
			}
			ai := a[i*n+i : (i+1)*n]
			for j, y := range row[i:] {
				ai[j] += di * (y - mean[i+j])
			}
		}
	}
	inv, s := 1.0/float64(m-1), 1/float64(m)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			a[i*n+j] = a[i*n+j] * inv * s
			a[j*n+i] = a[i*n+j]
		}
	}
}

// regionFromEigen assembles the region from the eigenpairs of its
// covariance: values sorted descending, vt row r the unit eigenvector of
// values[r].
func regionFromEigen(set *counters.Set, mode NoiseMode, confidence float64, mean []float64, chi2 float64, values, vt []float64, key [16]byte) *Region {
	n := len(mean)
	r := &Region{
		Set:        set,
		Mode:       mode,
		Confidence: confidence,
		Mean:       mean,
		Axes:       quantizeAxes(vt, n),
		HalfWidths: make([]float64, n),
		key:        key,
	}
	hmax := 0.0
	for i, lambda := range values {
		if lambda < 0 {
			// Round-off can produce tiny negative eigenvalues.
			lambda = 0
		}
		r.HalfWidths[i] = math.Sqrt(lambda * chi2)
		if r.HalfWidths[i] > hmax {
			hmax = r.HalfWidths[i]
		}
	}
	// Widen each slab by a numerical-safety margin. Two effects demand it:
	// (i) axis quantisation slightly rotates the box, and (ii) exactly
	// linearly dependent counters (walk_done = Σ walk_done_size) produce
	// zero-eigenvalue axes whose eigenvector components carry O(1e-12)
	// round-off from the eigensolver's rotations; without a floor those
	// slabs become inconsistent exact hyperplanes in the downstream
	// rational LP. The margin is far below measurement noise.
	for i := range r.HalfWidths {
		dot := 0.0
		for j := 0; j < n; j++ {
			dot += r.Axes[i][j] * r.Mean[j]
		}
		r.HalfWidths[i] += 1e-4*hmax + 1e-6*(1+math.Abs(dot))
	}
	return r
}

// axisQuantum is the dyadic grid the box axes are snapped to. Quantised
// axis components are exactly representable as float64 and convert to
// rationals with denominator ≤ 2^16, keeping the exact feasibility LP's
// pivots on small numbers.
const axisQuantum = 1.0 / 65536

// quantizeAxes snaps the n rows of the flat n×n vt onto the axis grid,
// into rows sharing one backing array.
func quantizeAxes(vt []float64, n int) [][]float64 {
	flat := make([]float64, n*n)
	for i, v := range vt[:n*n] {
		flat[i] = math.Round(v/axisQuantum) * axisQuantum
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}

// Key returns the region's content key: RegionDigest.Key of exactly what
// it was built from (its counter set and the projected samples, the noise
// mode and the confidence). A region is a pure function of that content,
// so two regions with equal keys are identical and produce bit-identical
// feasibility LPs downstream; the engine uses the key (with the model's
// content key) to address its LP-hash memo. The key is zero on a region
// not built by this package.
func (r *Region) Key() [16]byte { return r.key }

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

// Center returns the region's centre (the sample mean Ȳ).
func (r *Region) Center() []float64 {
	out := make([]float64, len(r.Mean))
	copy(out, r.Mean)
	return out
}

// LogVolume returns the natural log of the box volume Π 2hᵢ, with zero
// half-widths clamped to a small epsilon so degenerate regions compare
// sensibly. Correlated regions have smaller volume than independent ones
// for the same data — the quantitative sense in which they are "tighter".
func (r *Region) LogVolume() float64 {
	v := 0.0
	for _, h := range r.HalfWidths {
		w := 2 * h
		if w < 1e-12 {
			w = 1e-12
		}
		v += math.Log(w)
	}
	return v
}

// MaxHalfWidth returns the largest half-width — the region's worst-case
// uncertainty along any principal direction.
func (r *Region) MaxHalfWidth() float64 {
	max := 0.0
	for _, h := range r.HalfWidths {
		if h > max {
			max = h
		}
	}
	return max
}

// Project returns the region's axis-aligned interval for counter event e:
// the minimum and maximum of the e-coordinate over the box. Useful for
// reporting per-counter uncertainty.
func (r *Region) Project(e counters.Event) (lo, hi float64, ok bool) {
	idx, ok := r.Set.Index(e)
	if !ok {
		return 0, 0, false
	}
	lo, hi = r.Mean[idx], r.Mean[idx]
	for i, axis := range r.Axes {
		span := math.Abs(axis[idx]) * r.HalfWidths[i]
		lo -= span
		hi += span
	}
	return lo, hi, true
}
