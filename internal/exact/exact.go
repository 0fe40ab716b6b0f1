// Package exact provides exact rational-number linear algebra over
// math/big.Rat: vectors, matrices, Gaussian elimination, null spaces and
// row spaces.
//
// CounterPoint's constraint-deduction pipeline (paper §6) requires exact
// arithmetic: "standard numeric methods (e.g., QR factorization) are
// ill-conditioned, whilst symbolic operations preserve exact integer
// values". Every geometric computation in internal/cone and every pivot of
// the simplex solver in internal/simplex is performed over ℚ with this
// package, so feasibility verdicts and facet equations are never corrupted
// by floating-point round-off.
package exact

import (
	"fmt"
	"math/big"
	"strings"
)

// Vec is a dense vector of rationals. Elements are never nil.
type Vec []*big.Rat

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = new(big.Rat)
	}
	return v
}

// VecFromInts builds a vector from integers.
func VecFromInts(xs ...int64) Vec {
	v := make(Vec, len(xs))
	for i, x := range xs {
		v[i] = big.NewRat(x, 1)
	}
	return v
}

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	for i, x := range v {
		out[i] = new(big.Rat).Set(x)
	}
	return out
}

// IsZero reports whether all components are zero.
func (v Vec) IsZero() bool {
	for _, x := range v {
		if x.Sign() != 0 {
			return false
		}
	}
	return true
}

// Dot returns the inner product v·w.
func (v Vec) Dot(w Vec) *big.Rat {
	if len(v) != len(w) {
		panic(fmt.Sprintf("exact: dot length mismatch %d vs %d", len(v), len(w)))
	}
	sum := new(big.Rat)
	t := new(big.Rat)
	for i := range v {
		if v[i].Sign() == 0 || w[i].Sign() == 0 {
			continue
		}
		t.Mul(v[i], w[i])
		sum.Add(sum, t)
	}
	return sum
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec {
	out := v.Clone()
	for i := range out {
		out[i].Add(out[i], w[i])
	}
	return out
}

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec {
	out := v.Clone()
	for i := range out {
		out[i].Sub(out[i], w[i])
	}
	return out
}

// Scale returns c·v.
func (v Vec) Scale(c *big.Rat) Vec {
	out := v.Clone()
	for i := range out {
		out[i].Mul(out[i], c)
	}
	return out
}

// AddScaled sets v += c·w in place.
func (v Vec) AddScaled(c *big.Rat, w Vec) {
	t := new(big.Rat)
	for i := range v {
		if w[i].Sign() == 0 {
			continue
		}
		t.Mul(c, w[i])
		v[i].Add(v[i], t)
	}
}

// Equal reports component-wise equality.
func (v Vec) Equal(w Vec) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i].Cmp(w[i]) != 0 {
			return false
		}
	}
	return true
}

// Floats converts v to float64 components.
func (v Vec) Floats() []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i], _ = x.Float64()
	}
	return out
}

// String renders the vector as (a, b, c).
func (v Vec) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = x.RatString()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// NormalizeIntegral scales v by a positive rational so that its entries are
// coprime integers (division by the GCD after clearing denominators). The
// zero vector is returned unchanged. This is the signature normalisation
// step of paper §6 ("normalized by dividing each element by the greatest
// common factor").
func (v Vec) NormalizeIntegral() Vec {
	if v.IsZero() {
		return v.Clone()
	}
	// lcm of denominators
	lcm := big.NewInt(1)
	t := new(big.Int)
	for _, x := range v {
		d := x.Denom()
		t.GCD(nil, nil, lcm, d)
		lcm.Div(lcm, t)
		lcm.Mul(lcm, d)
	}
	// scale to integers, track gcd of numerators
	ints := make([]*big.Int, len(v))
	gcd := new(big.Int)
	for i, x := range v {
		n := new(big.Int).Mul(x.Num(), new(big.Int).Div(lcm, x.Denom()))
		ints[i] = n
		if n.Sign() != 0 {
			if gcd.Sign() == 0 {
				gcd.Abs(n)
			} else {
				gcd.GCD(nil, nil, gcd, new(big.Int).Abs(n))
			}
		}
	}
	out := make(Vec, len(v))
	for i, n := range ints {
		out[i] = new(big.Rat).SetInt(new(big.Int).Div(n, gcd))
	}
	return out
}

// Key returns a canonical string key for deduplication.
func (v Vec) Key() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = x.RatString()
	}
	return strings.Join(parts, "|")
}

// Mat is a dense row-major rational matrix.
type Mat struct {
	Rows, Cols int
	Data       []Vec // one Vec per row
}

// NewMat returns a zero rows×cols matrix.
func NewMat(rows, cols int) *Mat {
	m := &Mat{Rows: rows, Cols: cols, Data: make([]Vec, rows)}
	for i := range m.Data {
		m.Data[i] = NewVec(cols)
	}
	return m
}

// MatFromRows builds a matrix from row vectors (cloned).
func MatFromRows(rows []Vec) *Mat {
	if len(rows) == 0 {
		return &Mat{}
	}
	m := &Mat{Rows: len(rows), Cols: len(rows[0]), Data: make([]Vec, len(rows))}
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("exact: ragged rows")
		}
		m.Data[i] = r.Clone()
	}
	return m
}

// At returns the element at (i, j).
func (m *Mat) At(i, j int) *big.Rat { return m.Data[i][j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v *big.Rat) { m.Data[i][j].Set(v) }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := &Mat{Rows: m.Rows, Cols: m.Cols, Data: make([]Vec, m.Rows)}
	for i, r := range m.Data {
		out.Data[i] = r.Clone()
	}
	return out
}

// RowEchelon reduces m in place to reduced row-echelon form and returns the
// pivot column of each pivot row, in order. Rows below the returned rank are
// zero.
func (m *Mat) RowEchelon() (pivotCols []int) {
	r := 0
	t := new(big.Rat)
	for c := 0; c < m.Cols && r < m.Rows; c++ {
		// find pivot
		p := -1
		for i := r; i < m.Rows; i++ {
			if m.Data[i][c].Sign() != 0 {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		m.Data[r], m.Data[p] = m.Data[p], m.Data[r]
		// scale pivot row to 1
		inv := new(big.Rat).Inv(m.Data[r][c])
		for j := c; j < m.Cols; j++ {
			m.Data[r][j].Mul(m.Data[r][j], inv)
		}
		// eliminate all other rows
		for i := 0; i < m.Rows; i++ {
			if i == r || m.Data[i][c].Sign() == 0 {
				continue
			}
			factor := new(big.Rat).Set(m.Data[i][c])
			for j := c; j < m.Cols; j++ {
				t.Mul(factor, m.Data[r][j])
				m.Data[i][j].Sub(m.Data[i][j], t)
			}
		}
		pivotCols = append(pivotCols, c)
		r++
	}
	return pivotCols
}

// Rank returns the rank of m (without modifying m).
func (m *Mat) Rank() int {
	c := m.Clone()
	return len(c.RowEchelon())
}

// RowSpaceBasis returns a basis (as reduced-echelon rows) for the row space
// of the matrix whose rows are rows.
func RowSpaceBasis(rows []Vec) []Vec {
	if len(rows) == 0 {
		return nil
	}
	m := MatFromRows(rows)
	pivots := m.RowEchelon()
	out := make([]Vec, len(pivots))
	for i := range pivots {
		out[i] = m.Data[i].Clone()
	}
	return out
}

// NullSpaceBasis returns a basis for {x : A·x = 0} where A's rows are rows.
// Each basis vector is normalised to coprime integers.
func NullSpaceBasis(rows []Vec, cols int) []Vec {
	m := MatFromRows(rows)
	if m.Rows == 0 {
		m = NewMat(0, cols)
		m.Cols = cols
	}
	pivots := m.RowEchelon()
	isPivot := make(map[int]bool, len(pivots))
	for _, c := range pivots {
		isPivot[c] = true
	}
	var basis []Vec
	for free := 0; free < cols; free++ {
		if isPivot[free] {
			continue
		}
		v := NewVec(cols)
		v[free].SetInt64(1)
		for i, pc := range pivots {
			// pivot row i: x[pc] = -sum_{j free} a[i][j] x[j]
			v[pc].Neg(m.Data[i][free])
		}
		basis = append(basis, v.NormalizeIntegral())
	}
	return basis
}

// SolveInSpan expresses v as a combination of basis vectors, returning the
// coefficients, or ok=false if v is not in the span. basis must be linearly
// independent.
func SolveInSpan(v Vec, basis []Vec) (coeffs Vec, ok bool) {
	if len(basis) == 0 {
		return nil, v.IsZero()
	}
	n := len(v)
	// Augmented system: columns are basis vectors, RHS v.
	m := NewMat(n, len(basis)+1)
	for j, b := range basis {
		for i := 0; i < n; i++ {
			m.Data[i][j].Set(b[i])
		}
	}
	for i := 0; i < n; i++ {
		m.Data[i][len(basis)].Set(v[i])
	}
	pivots := m.RowEchelon()
	coeffs = NewVec(len(basis))
	for i, pc := range pivots {
		if pc == len(basis) {
			return nil, false // inconsistent: pivot in RHS column
		}
		coeffs[pc].Set(m.Data[i][len(basis)])
	}
	return coeffs, true
}
