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
	m := make([][]int64, len(rows))
	if !load64(m, make([]int64, len(rows)*cols), rows, cols) {
		return Echelon64{}, false
	}
	pivots, ok := reduce64(m, cols, nil)
	if !ok {
		return Echelon64{}, false
	}
	return Echelon64{Rows: m[:len(pivots)], Pivots: pivots}, true
}

// load64 copies rows into m, backed by buf (len(rows)·cols entries), each
// row divided by its GCD. It is false on an entry of magnitude 2⁶³.
func load64(m [][]int64, buf []int64, rows [][]int64, cols int) bool {
	for i, r := range rows {
		m[i] = buf[i*cols : (i+1)*cols : (i+1)*cols]
		for j, x := range r {
			if x == math.MinInt64 {
				return false
			}
			m[i][j] = x
		}
		DivideByGCD(m[i])
	}
	return true
}

// reduce64 brings m to fraction-free reduced echelon form in place,
// moving the rank's rows to the top, and returns the pivot columns
// appended to pivots. ok is false on overflow.
func reduce64(m [][]int64, cols int, pivots []int) ([]int, bool) {
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
				return nil, false
			}
		}
		pivots = append(pivots, c)
		r++
	}
	return pivots, true
}

// RankScratch computes matrix ranks on the int64 kernel, reusing its
// storage from one call to the next. The zero value is ready to use; it
// is not safe for concurrent use.
type RankScratch struct {
	buf    []int64
	rows   [][]int64
	pivots []int
}

// Rank64 returns the rank of the integer matrix whose rows are rows (each
// of length cols). ok is false on overflow.
func (s *RankScratch) Rank64(rows [][]int64, cols int) (int, bool) {
	if n := len(rows) * cols; cap(s.buf) < n {
		s.buf = make([]int64, n)
	}
	if cap(s.rows) < len(rows) {
		s.rows = make([][]int64, len(rows))
	}
	m := s.rows[:len(rows)]
	if !load64(m, s.buf[:len(rows)*cols], rows, cols) {
		return 0, false
	}
	var ok bool
	s.pivots, ok = reduce64(m, cols, s.pivots[:0])
	return len(s.pivots), ok
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

// SolveSquareMany64 solves the square system A·X = B for k right-hand
// sides at once, given as the augmented rows [A | B] (d rows of d+k
// entries), so A is reduced once: column j of X is num[j]/den, with one
// den > 0 for every column. ok is false on overflow or when A is
// singular. aug is not modified.
func SolveSquareMany64(aug [][]int64, k int) (num [][]int64, den int64, ok bool) {
	d := len(aug)
	e, ok := ReduceEchelon64(aug, d+k)
	if !ok || len(e.Pivots) != d || (d > 0 && e.Pivots[d-1] != d-1) {
		return nil, 0, false
	}
	// Row i is (0…0, p_i, 0…0 | r_i1 … r_ik) with p_i > 0: X_ij = r_ij/p_i.
	den = 1
	for i := range e.Rows {
		p := e.Rows[i][i]
		if den, ok = MulInt64(den, p/int64(GCD64(uint64(den), uint64(p)))); !ok {
			return nil, 0, false
		}
	}
	buf := make([]int64, k*d)
	num = make([][]int64, k)
	for j := range num {
		num[j] = buf[j*d : (j+1)*d : (j+1)*d]
		for i, row := range e.Rows {
			if num[j][i], ok = MulInt64(row[d+j], den/row[i]); !ok {
				return nil, 0, false
			}
		}
	}
	return num, den, true
}
