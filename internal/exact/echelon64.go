package exact

import "math"

// Fraction-free linear algebra on the int64 kernel. Constraint deduction
// (package cone) runs its equality pass, its row-space basis, the double
// description's adjacency rank tests and the facet lift on small integer
// matrices — μpath signatures are counts — so every row is kept as a
// primitive integer vector: an elimination step a·row − b·pivot is
// followed by division by the row's GCD, which keeps entries as small as
// the rational row's normalised form. Every operation is overflow-checked
// and reports ok=false instead of wrapping; the caller then redoes that
// step on big.Rat, so results are exact either way.

// LinComb64 returns normalise(a·x − b·y), the primitive integer vector
// with the direction of a·x − b·y (zero stays zero). ok is false on
// overflow. The result is freshly allocated.
func LinComb64(a int64, x []int64, b int64, y []int64) ([]int64, bool) {
	out := make([]int64, len(x))
	if !linComb64(out, a, x, b, y) {
		return nil, false
	}
	return out, true
}

// linComb64 writes normalise(a·x − b·y) into dst, which may alias x.
func linComb64(dst []int64, a int64, x []int64, b int64, y []int64) bool {
	for i := range x {
		var t1, t2 int64
		ok := true
		if x[i] != 0 {
			if t1, ok = MulInt64(a, x[i]); !ok {
				return false
			}
		}
		if y[i] != 0 {
			if t2, ok = MulInt64(b, y[i]); !ok {
				return false
			}
		}
		d, ok := SubInt64(t1, t2)
		if !ok || d == math.MinInt64 {
			return false
		}
		dst[i] = d
	}
	DivideByGCD(dst)
	return true
}

// DivideByGCD divides v in place by the GCD of its entries, making it
// primitive (a zero vector stays zero). Entries must not be MinInt64.
func DivideByGCD(v []int64) {
	g := uint64(0)
	for _, x := range v {
		if x != 0 {
			g = GCD64(g, AbsU64(x))
			if g == 1 {
				return
			}
		}
	}
	if g <= 1 {
		return
	}
	for i, x := range v {
		v[i] = x / int64(g)
	}
}

// Echelon64 is the reduced row-echelon form of an integer matrix in
// fraction-free form: Rows[i] is a primitive integer multiple of row i of
// the rational reduced echelon form, its entry at column Pivots[i] is
// positive, and it is zero at every other pivot column. Rows below the
// rank are dropped.
type Echelon64 struct {
	Rows   [][]int64
	Pivots []int
}

// ReduceEchelon64 computes the fraction-free reduced echelon form of the
// matrix whose rows are rows, each of length cols (rows is not
// modified). ok is false on int64 overflow or an entry of magnitude 2⁶³.
func ReduceEchelon64(rows [][]int64, cols int) (Echelon64, bool) {
	buf := make([]int64, len(rows)*cols)
	m := make([][]int64, len(rows))
	for i, r := range rows {
		m[i] = buf[i*cols : (i+1)*cols : (i+1)*cols]
		for j, x := range r {
			if x == math.MinInt64 {
				return Echelon64{}, false
			}
			m[i][j] = x
		}
		DivideByGCD(m[i])
	}
	var pivots []int
	r := 0
	for c := 0; c < cols && r < len(m); c++ {
		p := -1
		for i := r; i < len(m); i++ {
			if m[i][c] != 0 {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		m[r], m[p] = m[p], m[r]
		if m[r][c] < 0 {
			for j, x := range m[r] {
				m[r][j] = -x
			}
		}
		pv := m[r][c]
		for i := range m {
			if i == r || m[i][c] == 0 {
				continue
			}
			// Row i's entries left of c sit in earlier pivot columns or are
			// zero, where the pivot row is zero: pv·row_i − f·row_r keeps
			// them (scaled by pv) and clears column c.
			f := m[i][c]
			if !linComb64(m[i], pv, m[i], f, m[r]) {
				return Echelon64{}, false
			}
		}
		pivots = append(pivots, c)
		r++
	}
	return Echelon64{Rows: m[:r], Pivots: pivots}, true
}

// Rank64 returns the rank of the integer matrix whose rows are rows (each
// of length cols). ok is false on overflow.
func Rank64(rows [][]int64, cols int) (int, bool) {
	e, ok := ReduceEchelon64(rows, cols)
	return len(e.Pivots), ok
}

// NullSpace64 returns the basis of {x : A·x = 0} that NullSpaceBasis
// returns for the same matrix — one coprime integer vector per non-pivot
// column of A's reduced echelon form, in column order — computed on the
// int64 kernel. ok is false on overflow.
func NullSpace64(rows [][]int64, cols int) ([][]int64, bool) {
	e, ok := ReduceEchelon64(rows, cols)
	if !ok {
		return nil, false
	}
	// The rational echelon entry (i, free) is Rows[i][free]/p_i with
	// p_i = Rows[i][Pivots[i]] > 0. Over the common denominator
	// L = lcm(p_i), the basis vector for free is L at free and
	// −Rows[i][free]·(L/p_i) at Pivots[i].
	l := int64(1)
	for i, pc := range e.Pivots {
		p := e.Rows[i][pc]
		if l, ok = MulInt64(l, p/int64(GCD64(uint64(l), uint64(p)))); !ok {
			return nil, false
		}
	}
	isPivot := make([]bool, cols)
	for _, pc := range e.Pivots {
		isPivot[pc] = true
	}
	var basis [][]int64
	for free := 0; free < cols; free++ {
		if isPivot[free] {
			continue
		}
		v := make([]int64, cols)
		v[free] = l
		for i, pc := range e.Pivots {
			if a := e.Rows[i][free]; a != 0 {
				x, ok := MulInt64(a, l/e.Rows[i][pc])
				if !ok {
					return nil, false
				}
				v[pc] = -x
			}
		}
		DivideByGCD(v)
		basis = append(basis, v)
	}
	return basis, true
}

// SolveSquare64 solves the square system A·x = b, given as the augmented
// rows [A | b] (d rows of d+1 entries), returning x = num/den with
// den > 0. ok is false on overflow or when A is singular.
func SolveSquare64(aug [][]int64) (num []int64, den int64, ok bool) {
	d := len(aug)
	e, ok := ReduceEchelon64(aug, d+1)
	if !ok || len(e.Pivots) != d || (d > 0 && e.Pivots[d-1] != d-1) {
		return nil, 0, false
	}
	// Row i is (0…0, p_i, 0…0 | r_i) with p_i > 0: x_i = r_i/p_i.
	den = 1
	for i := range e.Rows {
		p := e.Rows[i][i]
		if den, ok = MulInt64(den, p/int64(GCD64(uint64(den), uint64(p)))); !ok {
			return nil, 0, false
		}
	}
	num = make([]int64, d)
	for i, row := range e.Rows {
		if num[i], ok = MulInt64(row[d], den/row[i]); !ok {
			return nil, 0, false
		}
	}
	return num, den, true
}
