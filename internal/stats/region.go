package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

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
// every verdict over the same data, and Key is computed at construction.
type Region struct {
	Set        *counters.Set
	Mode       NoiseMode
	Confidence float64
	Mean       []float64
	Axes       [][]float64 // unit eigenvectors eᵢ, rows
	HalfWidths []float64   // √(λᵢ·χ²), same order as Axes

	key [16]byte // Key, memoised by newRegion; zero on a hand-built region
}

// NewRegion builds the confidence region of an observation at the given
// confidence level (the paper fixes 99%). The sample-mean covariance is the
// plug-in estimator Σ_Ȳ = Σ_Y / M.
//
// Callers evaluating many observations (or the same observations against
// many models) should go through the engine, which memoises both the χ²
// quantiles and the finished regions.
func NewRegion(o *counters.Observation, confidence float64, mode NoiseMode) (*Region, error) {
	return newRegion(o, confidence, mode, ChiSquareQuantile)
}

// newRegion is the shared construction core; quantile supplies the χ²
// quantile (memoised or not, the builder's choice).
func newRegion(o *counters.Observation, confidence float64, mode NoiseMode, quantile func(p float64, df int) (float64, error)) (*Region, error) {
	if o.Len() == 0 {
		return nil, fmt.Errorf("stats: observation %q has no samples", o.Label)
	}
	if confidence <= 0 || confidence >= 1 {
		return nil, fmt.Errorf("stats: confidence must be in (0,1), got %g", confidence)
	}
	n := o.Set.Len()
	cov := Covariance(o.Samples)
	if mode == Independent {
		cov = Diagonal(cov)
	}
	cov = Scale(cov, 1/float64(o.Len()))
	eig, err := SymmetricEigen(cov)
	if err != nil {
		return nil, err
	}
	chi2, err := quantile(confidence, n)
	if err != nil {
		return nil, err
	}
	r := &Region{
		Set:        o.Set,
		Mode:       mode,
		Confidence: confidence,
		Mean:       o.Mean(),
		Axes:       quantizeAxes(eig.Vectors),
		HalfWidths: make([]float64, n),
	}
	hmax := 0.0
	for i, lambda := range eig.Values {
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
	// Jacobi round-off; without a floor those slabs become inconsistent
	// exact hyperplanes in the downstream rational LP. The margin is far
	// below measurement noise.
	for i := range r.HalfWidths {
		dot := 0.0
		for j := 0; j < n; j++ {
			dot += r.Axes[i][j] * r.Mean[j]
		}
		r.HalfWidths[i] += 1e-4*hmax + 1e-6*(1+math.Abs(dot))
	}
	r.key = r.contentKey()
	return r, nil
}

// axisQuantum is the dyadic grid the box axes are snapped to. Quantised
// axis components are exactly representable as float64 and convert to
// rationals with denominator ≤ 2^16, keeping the exact feasibility LP's
// pivots on small numbers.
const axisQuantum = 1.0 / 65536

func quantizeAxes(axes [][]float64) [][]float64 {
	out := make([][]float64, len(axes))
	for i, axis := range axes {
		q := make([]float64, len(axis))
		for j, v := range axis {
			q[j] = math.Round(v/axisQuantum) * axisQuantum
		}
		out[i] = q
	}
	return out
}

// Key returns a compact content key for the region: the first 16 bytes
// of a SHA-256 over the counter set, noise mode, confidence level, and
// the exact float64 bit patterns of the mean, axes and half-widths. Two
// regions with equal keys produce bit-identical feasibility LPs
// downstream, so the engine uses the key (with the model's content key)
// to address its LP-hash memo. Regions built by this package compute it
// once, at construction.
func (r *Region) Key() [16]byte {
	if r.key == ([16]byte{}) {
		return r.contentKey()
	}
	return r.key
}

func (r *Region) contentKey() [16]byte {
	// Small regions encode on the stack; the key path allocates nothing.
	var buf [1024]byte
	b := append(buf[:0], r.Set.Key()...)
	word := func(bits uint64) { b = binary.LittleEndian.AppendUint64(b, bits) }
	word(uint64(r.Mode))
	word(math.Float64bits(r.Confidence))
	word(uint64(len(r.Mean)))
	for _, v := range r.Mean {
		word(math.Float64bits(v))
	}
	for _, axis := range r.Axes {
		for _, v := range axis {
			word(math.Float64bits(v))
		}
	}
	for _, v := range r.HalfWidths {
		word(math.Float64bits(v))
	}
	sum := sha256.Sum256(b)
	return [16]byte(sum[:16])
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
