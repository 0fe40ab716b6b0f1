package stats

import (
	"cmp"
	"errors"
	"math"
	"slices"
)

// qlMaxIterPerRow bounds the implicit QL iterations: at most this many
// per row of the decomposed block, in total. QL converges in one or two
// iterations per eigenvalue on any finite input, so the cap is only hit
// when round-off has already turned the iteration into nonsense.
const qlMaxIterPerRow = 30

var (
	errNonFinite   = errors.New("stats: matrix has a non-finite entry")
	errNotConverge = errors.New("stats: eigendecomposition did not converge")
)

// eigenWork is the flat scratch of one symmetric eigendecomposition. The
// region builder pools them, so a warm decomposition allocates nothing.
type eigenWork struct {
	a      []float64 // n×n input, row-major
	live   []int     // rows with a non-zero off-diagonal entry
	slot   []int     // slot[i]: row i's index in live, or -1
	z      []float64 // the live block; its eigenvectors as rows after QL
	d, e   []float64 // the live block's diagonal and sub-diagonal
	pre    []float64 // eigenvalue of eigenpair i before sorting
	order  []int     // eigenpair indices by descending eigenvalue
	values []float64 // sorted eigenvalues
	vt     []float64 // n×n, row r is the unit eigenvector of values[r]
}

// grow returns s resized to n, reusing its storage when it is large
// enough. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// matrix returns w's n×n input, zeroed, for the caller to fill.
func (w *eigenWork) matrix(n int) []float64 {
	w.a = grow(w.a, n*n)
	clear(w.a)
	return w.a
}

// decompose computes the eigenpairs of the symmetric n×n matrix in w.a
// into w.values and w.vt, sorted by descending eigenvalue with ties in
// row order.
//
// A row with no non-zero off-diagonal entry (a constant counter, or every
// counter of an Independent region) is already an eigenvector: it keeps
// its exact unit axis and its diagonal value. Only the remaining live
// block is decomposed, by Householder tridiagonalisation followed by
// implicit QL (the EISPACK tred2/tql2 scheme), with the eigenvectors kept
// as rows so each rotation updates two contiguous rows. Deflating first
// matters beyond speed: a decomposition of the whole matrix would mix the
// isolated rows into the null-space axes of the live block, and every
// non-zero component of an axis is another coefficient in the region LP.
// A live eigenpair is indexed, for the tie order, by its position in the
// block's output mapped to the live row of that position.
//
// A matrix with a non-finite entry is rejected before any iteration, and
// one whose decomposition overflows, or does not converge within
// qlMaxIterPerRow iterations per live row, is an error.
func (w *eigenWork) decompose(n int) error {
	a := w.a[:n*n]
	for _, x := range a {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return errNonFinite
		}
	}
	w.live, w.slot = w.live[:0], grow(w.slot, n)
	for i := 0; i < n; i++ {
		w.slot[i] = -1
		for j := 0; j < n; j++ {
			if j != i && (a[i*n+j] != 0 || a[j*n+i] != 0) {
				w.slot[i] = len(w.live)
				w.live = append(w.live, i)
				break
			}
		}
	}
	k := len(w.live)
	w.z, w.d, w.e = grow(w.z, k*k), grow(w.d, k), grow(w.e, k)
	if k > 0 {
		big := 0.0
		for p, i := range w.live {
			for q, j := range w.live {
				x := a[i*n+j]
				w.z[p*k+q] = x
				big = math.Max(big, math.Abs(x))
			}
		}
		// A block whose largest entry is far from 1 is decomposed at the
		// power-of-two scale that brings that entry into [1/2, 1), so no
		// intermediate of tred2 or tql2 overflows or sinks into the
		// subnormals. The scaling is exact.
		exp := 0
		if big > 0x1p400 || big < 0x1p-400 {
			_, exp = math.Frexp(big)
			for p, x := range w.z {
				w.z[p] = math.Ldexp(x, -exp)
			}
		}
		tred2(w.z, w.d, w.e, k)
		if err := tql2(w.z, w.d, w.e, k, qlMaxIterPerRow*k); err != nil {
			return err
		}
		if exp != 0 {
			for p, x := range w.d {
				w.d[p] = math.Ldexp(x, exp)
			}
		}
		for _, x := range w.z {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return errNonFinite
			}
		}
	}

	w.pre, w.order = grow(w.pre, n), grow(w.order, n)
	for i := 0; i < n; i++ {
		if p := w.slot[i]; p >= 0 {
			w.pre[i] = w.d[p]
		} else {
			w.pre[i] = a[i*n+i]
		}
		if math.IsNaN(w.pre[i]) || math.IsInf(w.pre[i], 0) {
			return errNonFinite
		}
		w.order[i] = i
	}
	slices.SortStableFunc(w.order, func(x, y int) int { return cmp.Compare(w.pre[y], w.pre[x]) })
	w.values, w.vt = grow(w.values, n), grow(w.vt, n*n)
	clear(w.vt)
	for r, i := range w.order {
		w.values[r] = w.pre[i]
		row := w.vt[r*n : (r+1)*n]
		p := w.slot[i]
		if p < 0 {
			row[i] = 1
			continue
		}
		for q, j := range w.live {
			row[j] = w.z[p*k+q]
		}
	}
	return nil
}

// tred2 reduces the symmetric n×n matrix z (row-major, read on and above
// the diagonal) to tridiagonal form by Householder reflections: on return
// d is the diagonal, e[1:] the sub-diagonal, and row j of z the j-th
// column of the accumulated orthogonal transformation. It is EISPACK's
// tred2 (as in JAMA) applied to the transpose.
func tred2(z, d, e []float64, n int) {
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
	}
	for i := n - 1; i > 0; i-- {
		// Scale to avoid under- and overflow.
		scale, h := 0.0, 0.0
		for _, x := range d[:i] {
			scale += math.Abs(x)
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = z[j*n+i-1]
				z[j*n+i] = 0
				z[i*n+j] = 0
			}
			d[i] = h
			continue
		}
		// Generate the Householder vector.
		for j := 0; j < i; j++ {
			d[j] /= scale
			h += d[j] * d[j]
		}
		f := d[i-1]
		g := math.Sqrt(h)
		if f > 0 {
			g = -g
		}
		e[i] = scale * g
		h -= f * g
		d[i-1] = f - g
		clear(e[:i])
		// Apply the similarity transformation to the remaining columns.
		for j := 0; j < i; j++ {
			f = d[j]
			z[i*n+j] = f
			row := z[j*n : j*n+i]
			g = e[j] + row[j]*f
			for k := j + 1; k < i; k++ {
				g += row[k] * d[k]
				e[k] += row[k] * f
			}
			e[j] = g
		}
		f = 0
		for j := 0; j < i; j++ {
			e[j] /= h
			f += e[j] * d[j]
		}
		hh := f / (h + h)
		for j := 0; j < i; j++ {
			e[j] -= hh * d[j]
		}
		for j := 0; j < i; j++ {
			f, g = d[j], e[j]
			row := z[j*n : j*n+i]
			for k := j; k < i; k++ {
				row[k] -= f*e[k] + g*d[k]
			}
			d[j] = row[i-1]
			z[j*n+i] = 0
		}
		d[i] = h
	}
	// Accumulate the transformations.
	for i := 0; i < n-1; i++ {
		z[i*n+n-1] = z[i*n+i]
		z[i*n+i] = 1
		next := z[(i+1)*n : (i+1)*n+i+1]
		if h := d[i+1]; h != 0 {
			for k, x := range next {
				d[k] = x / h
			}
			for j := 0; j <= i; j++ {
				row := z[j*n : j*n+i+1]
				g := 0.0
				for k, x := range next {
					g += x * row[k]
				}
				for k := range row {
					row[k] -= g * d[k]
				}
			}
		}
		clear(next)
	}
	for j := 0; j < n; j++ {
		d[j] = z[j*n+n-1]
		z[j*n+n-1] = 0
	}
	z[n*n-1] = 1
	e[0] = 0
}

// tql2 diagonalises the symmetric tridiagonal matrix (d, e[1:]) left by
// tred2 with the implicit QL method, applying every rotation to the rows
// of z: on return d holds the eigenvalues (unsorted) and row j of z the
// unit eigenvector of d[j]. It is EISPACK's tql2 (as in JAMA) on the
// transpose, with an error once maxIter iterations have run in total.
func tql2(z, d, e []float64, n, maxIter int) error {
	copy(e, e[1:n])
	e[n-1] = 0
	const eps = 0x1p-52
	f, tst1 := 0.0, 0.0
	iter := 0
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		for {
			// Find a negligible sub-diagonal element: small next to the
			// largest diagonal seen so far, or next to its own two
			// diagonal neighbours. The second test splits off a tiny
			// coupling between very unequal diagonals, whose implicit
			// shift would otherwise overflow.
			m := l
			for m < n-1 {
				if x := math.Abs(e[m]); x <= eps*tst1 || x <= eps*(math.Abs(d[m])+math.Abs(d[m+1])) {
					break
				}
				m++
			}
			// If m == l, d[l] is an eigenvalue; otherwise iterate.
			if m == l {
				break
			}
			if iter++; iter > maxIter {
				return errNotConverge
			}
			// Implicit shift.
			g := d[l]
			p := (d[l+1] - g) / (2 * e[l])
			r := math.Hypot(p, 1)
			if p < 0 {
				r = -r
			}
			d[l] = e[l] / (p + r)
			d[l+1] = e[l] * (p + r)
			dl1 := d[l+1]
			h := g - d[l]
			for i := l + 2; i < n; i++ {
				d[i] -= h
			}
			f += h
			// Implicit QL transformation.
			p = d[m]
			c, c2, c3 := 1.0, 1.0, 1.0
			el1 := e[l+1]
			s, s2 := 0.0, 0.0
			for i := m - 1; i >= l; i-- {
				c3, c2, s2 = c2, c, s
				g = c * e[i]
				h = c * p
				r = math.Hypot(p, e[i])
				e[i+1] = s * r
				c, s = rotation(p, e[i], r)
				p = c*d[i] - s*g
				d[i+1] = h + s*(c*g+s*d[i])
				// Accumulate the rotation into rows i and i+1.
				zi := z[i*n : (i+1)*n]
				zj := z[(i+1)*n : (i+2)*n]
				zj = zj[:len(zi)]
				for k, x := range zi {
					y := zj[k]
					zj[k] = s*x + c*y
					zi[k] = c*x - s*y
				}
			}
			p = -s * s2 * c3 * el1 * e[l] / dl1
			e[l] = s * p
			d[l] = c * p
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}

// rotation returns c = p/r and s = q/r for r = hypot(p, q) ≠ 0. Near the
// subnormal range r keeps too few bits for c² + s² = 1 to hold, and every
// rotation built from such a pair would erode the eigenvectors'
// orthogonality, so there the ratios are taken at a power-of-two scale,
// which is exact.
func rotation(p, q, r float64) (c, s float64) {
	if r < 0x1p-960 {
		_, exp := math.Frexp(math.Max(math.Abs(p), math.Abs(q)))
		p, q = math.Ldexp(p, -exp), math.Ldexp(q, -exp)
		r = math.Hypot(p, q)
	}
	return p / r, q / r
}
