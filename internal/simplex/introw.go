package simplex

// The integer form of a Problem's constraint system.
//
// Every consumer of a constraint row reads it in one shape: a primitive
// integer row a = (a₁ … aₙ, b) — gcd 1 — and a positive rational scale s
// with the constraint equal to (s·a₁ … s·aₙ)·x rel s·b. That covers the
// kernel tableau, the certificate checkers, the warm solver, the float
// filter's conversion and core's canonical LP hash. Scaling a row by a
// positive constant does not move its half-space, so sign tests, ratio
// tests and certificate checks run on a directly; only the float filter
// (which must see each rational coefficient rounded exactly as before) and
// the multipliers of original rows read s.
//
// A Problem holds its rows under one of two authorities, fixed per Reset:
//
//   - Rational rows (GrowConstraint, AddConstraint): Constraints[i].Coeffs
//     and RHS are authoritative and may be edited in place (followed by
//     Invalidate). The integer form is derived on first use after each
//     mutation and cached by the mutation generation.
//   - Integer-native rows (AddFloatRow): the integer form is written
//     directly from exact float64 values and no big.Rat is touched.
//     Constraints[i] carries only Rel until RatConstraints fills in the
//     rational view, which only the big.Rat reference tableau
//     (Workspace.ForceBigRat) and tests need.
//
// A row whose entries or scale do not fit int64 is kept wide (big.Int
// entries, big.Rat scale); every consumer has a big-number path for it.

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"repro/internal/exact"
)

// intRow is one constraint in integer form.
type intRow struct {
	a     []int64     // coefficients then the right-hand side, gcd 1 (narrow rows)
	scale exact.Rat64 // > 0: the constraint is scale·a (narrow rows)
	wide  *wideRow    // non-nil when an entry or the scale does not fit int64
}

// wideRow is the big-number form of an intRow.
type wideRow struct {
	a     []*big.Int
	scale *big.Rat
}

// rhsSign returns the sign of the row's right-hand side.
func (r *intRow) rhsSign() int {
	if r.wide != nil {
		return r.wide.a[len(r.wide.a)-1].Sign()
	}
	b := r.a[len(r.a)-1]
	switch {
	case b > 0:
		return 1
	case b < 0:
		return -1
	}
	return 0
}

// elem returns entry j as a *big.Int, writing narrow values into tmp.
func (r *intRow) elem(j int, tmp *big.Int) *big.Int {
	if r.wide != nil {
		return r.wide.a[j]
	}
	return tmp.SetInt64(r.a[j])
}

// intForm is the integer form of a whole constraint system. A derived form
// (rational rows) is immutable once published, so concurrent solvers may
// share it; a native form is owned by its Problem.
type intForm struct {
	gen   uint64
	rows  []intRow
	store []int64 // backing storage of the narrow rows' entries
	exps  []int   // floatIntRow's per-entry exponent scratch
}

// alloc hands out a zeroed entry slice of length n from the form's store.
func (f *intForm) alloc(n int) []int64 {
	if len(f.store)+n > cap(f.store) {
		f.store = make([]int64, 0, 2*cap(f.store)+n)
	}
	f.store = f.store[:len(f.store)+n]
	a := f.store[len(f.store)-n:]
	clear(a)
	return a
}

// intForm returns the problem's integer form: the native rows themselves,
// or the form derived from the rational rows on first use after each
// mutation.
func (p *Problem) intForm() *intForm {
	if p.native {
		return &p.own
	}
	if f := p.iform.Load(); f != nil && f.gen == p.gen {
		return f
	}
	f := &intForm{
		gen:   p.gen,
		rows:  make([]intRow, len(p.Constraints)),
		store: make([]int64, 0, len(p.Constraints)*(p.NumVars+1)),
	}
	for i := range p.Constraints {
		con := &p.Constraints[i]
		f.rows[i] = ratIntRow(f, con.Coeffs, con.RHS)
	}
	p.iform.Store(f)
	return f
}

// Invalidate marks the derived integer form of rational rows stale. Reset,
// GrowConstraint and AddConstraint call it automatically; callers that
// mutate Constraints or RHS storage directly must call it before the next
// solve. Integer-native rows cannot be edited in place.
func (p *Problem) Invalidate() { p.gen++ }

// IntRow returns constraint i in primitive integer form: a holds the
// NumVars coefficients followed by the right-hand side, with gcd 1, and
// scale > 0 is the factor with Constraints[i] = scale·a. ok is false for a
// row whose entries or scale do not fit int64; BigIntRow returns those.
// a shares the problem's storage: treat it as read-only.
func (p *Problem) IntRow(i int) (a []int64, scale exact.Rat64, ok bool) {
	r := &p.intForm().rows[i]
	if r.wide != nil {
		return nil, exact.Rat64{}, false
	}
	return r.a, r.scale, true
}

// BigIntRow returns constraint i's integer form (see IntRow) in big
// numbers. It is the path for rows IntRow declines; for the others it
// allocates a copy.
func (p *Problem) BigIntRow(i int) (a []*big.Int, scale *big.Rat) {
	r := &p.intForm().rows[i]
	if r.wide != nil {
		return r.wide.a, r.wide.scale
	}
	a = make([]*big.Int, len(r.a))
	for j, v := range r.a {
		a[j] = big.NewInt(v)
	}
	return a, r.scale.Rat(nil)
}

// AddFloatRow appends the constraint coeffs·x rel rhs, whose coefficients
// and right-hand side are the exact values of the given float64s, writing
// it straight into integer form. It fails on a non-finite value. Since the
// last Reset a Problem holds either only rows added this way or only rows
// added through GrowConstraint/AddConstraint; mixing them panics.
func (p *Problem) AddFloatRow(rel Rel, coeffs []float64, rhs float64) error {
	if len(coeffs) != p.NumVars {
		panic(fmt.Sprintf("simplex: constraint width %d != vars %d", len(coeffs), p.NumVars))
	}
	if !p.native {
		if len(p.Constraints) > 0 {
			panic("simplex: AddFloatRow on a problem with rational rows")
		}
		p.native = true // Reset emptied p.own
	}
	for _, v := range coeffs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("simplex: non-finite coefficient %v", v)
		}
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("simplex: non-finite right-hand side %v", rhs)
	}
	p.own.rows = append(p.own.rows, floatIntRow(&p.own, coeffs, rhs))
	// The rational view stays hidden (no coefficients, nil RHS) until
	// RatConstraints fills it in; the coefficient storage is kept for reuse.
	c := p.growRel(rel)
	c.Coeffs = c.Coeffs[:0]
	c.RHS = nil
	p.gen++
	p.own.gen = p.gen
	return nil
}

// growRel appends a constraint slot with relation rel, reusing the storage
// of a slot discarded by Reset.
func (p *Problem) growRel(rel Rel) *Constraint {
	if len(p.Constraints) < cap(p.Constraints) {
		p.Constraints = p.Constraints[:len(p.Constraints)+1]
	} else {
		p.Constraints = append(p.Constraints, Constraint{})
	}
	c := &p.Constraints[len(p.Constraints)-1]
	c.Rel = rel
	return c
}

// RatConstraints returns the constraints with every coefficient and
// right-hand side filled in as big.Rat: Constraints itself for rational
// rows, and for integer-native rows the rational view computed from the
// integer form on the first call after each mutation. It may run
// concurrently with solves and other RatConstraints calls, but not with
// mutation.
func (p *Problem) RatConstraints() []Constraint {
	if !p.native {
		return p.Constraints
	}
	p.ratMu.Lock()
	defer p.ratMu.Unlock()
	if p.ratGen == p.gen {
		return p.Constraints
	}
	t := new(big.Rat)
	for i := range p.Constraints {
		c := &p.Constraints[i]
		c.Coeffs = zeroVec(c.Coeffs, p.NumVars)
		if c.RHS == nil {
			c.RHS = new(big.Rat)
		}
		r := &p.own.rows[i]
		if w := r.wide; w != nil {
			for j := range c.Coeffs {
				c.Coeffs[j].Mul(t.SetInt(w.a[j]), w.scale)
			}
			c.RHS.Mul(t.SetInt(w.a[p.NumVars]), w.scale)
			continue
		}
		s := r.scale.Rat(t)
		for j := range c.Coeffs {
			c.Coeffs[j].SetInt64(r.a[j])
			c.Coeffs[j].Mul(c.Coeffs[j], s)
		}
		c.RHS.SetInt64(r.a[p.NumVars])
		c.RHS.Mul(c.RHS, s)
	}
	p.ratGen = p.gen
	return p.Constraints
}

// zeroVec returns v resized to n zeroed rationals, reusing the storage
// (including pointers beyond len) it already has.
func zeroVec(v exact.Vec, n int) exact.Vec {
	if cap(v) >= n {
		v = v[:n]
	} else {
		v = append(v[:cap(v)], make(exact.Vec, n-cap(v))...)
	}
	for i := range v {
		if v[i] == nil {
			v[i] = new(big.Rat)
		} else {
			v[i].SetInt64(0)
		}
	}
	return v
}

// primitive divides a by the gcd of its entries in place and returns that
// gcd (0 for an all-zero row). Integer-form entries are never MinInt64
// (exact.MulInt64 reports it as overflow, and float rows stay below 2^63),
// so every entry stays negatable.
func primitive(a []int64) uint64 {
	var g uint64
	for _, x := range a {
		if x != 0 {
			if g = exact.GCD64(g, exact.AbsU64(x)); g == 1 {
				return 1
			}
		}
	}
	if g > 1 {
		gi := int64(g)
		for j := range a {
			a[j] /= gi
		}
	}
	return g
}

// floatIntRow converts the exact values of coeffs and rhs to integer form.
// Each finite float is m·2^e with m an odd integer (|m| < 2^53); the row
// is scaled by 2^−emin onto integers, then divided by its gcd g, so its
// scale is g·2^emin.
func floatIntRow(f *intForm, coeffs []float64, rhs float64) intRow {
	n := len(coeffs)
	a := f.alloc(n + 1)
	if cap(f.exps) < n+1 {
		f.exps = make([]int, n+1)
	}
	exps := f.exps[:n+1]
	emin := math.MaxInt
	for j := range a {
		m, e := floatParts(floatAt(coeffs, rhs, j))
		a[j], exps[j] = m, e
		if m != 0 && e < emin {
			emin = e
		}
	}
	if emin == math.MaxInt {
		return intRow{a: a, scale: exact.Rat64FromInt64(1)} // all zero
	}
	for j, m := range a {
		if m == 0 {
			continue
		}
		sh := exps[j] - emin
		if sh >= 63 || bits.Len64(exact.AbsU64(m))+sh > 63 {
			return wideFloatRow(coeffs, rhs, emin)
		}
		a[j] = m << uint(sh)
	}
	g := primitive(a)
	var scale exact.Rat64
	var ok bool
	switch {
	case emin >= 0 && emin < 63:
		var num int64
		num, ok = exact.MulInt64(int64(g), int64(1)<<uint(emin))
		scale = exact.Rat64FromInt64(num)
	case emin < 0 && emin > -63:
		// The entry at emin is odd, so g is odd and g/2^−emin is reduced.
		scale, ok = exact.MakeRat64(int64(g), int64(1)<<uint(-emin))
	}
	if !ok {
		return wideFloatRow(coeffs, rhs, emin)
	}
	return intRow{a: a, scale: scale}
}

// floatAt returns entry j of the row (coeffs, rhs).
func floatAt(coeffs []float64, rhs float64, j int) float64 {
	if j < len(coeffs) {
		return coeffs[j]
	}
	return rhs
}

// floatParts returns a finite float64 as m·2^e with m odd, or m = 0.
func floatParts(x float64) (m int64, e int) {
	if x == 0 {
		return 0, 0
	}
	b := math.Float64bits(x)
	exp := int(b>>52) & 0x7ff
	mant := b & (1<<52 - 1)
	if exp == 0 {
		exp = 1 // subnormal
	} else {
		mant |= 1 << 52
	}
	tz := bits.TrailingZeros64(mant)
	m = int64(mant >> uint(tz))
	if b>>63 != 0 {
		m = -m
	}
	return m, exp - 1075 + tz
}

// wideFloatRow is floatIntRow's big-number path.
func wideFloatRow(coeffs []float64, rhs float64, emin int) intRow {
	n := len(coeffs)
	w := &wideRow{a: make([]*big.Int, n+1), scale: new(big.Rat)}
	g := new(big.Int)
	for j := range w.a {
		m, e := floatParts(floatAt(coeffs, rhs, j))
		v := big.NewInt(m)
		if m != 0 {
			v.Lsh(v, uint(e-emin))
		}
		w.a[j] = v
		g.GCD(nil, nil, g, new(big.Int).Abs(v))
	}
	for _, v := range w.a {
		v.Quo(v, g)
	}
	if emin >= 0 {
		w.scale.SetInt(g.Lsh(g, uint(emin)))
	} else {
		w.scale.SetFrac(g, new(big.Int).Lsh(big.NewInt(1), uint(-emin)))
	}
	return intRow{wide: w}
}

// ratIntRow converts a rational row to integer form: scaled by the lcm L
// of its denominators, then divided by the gcd g of the result, so its
// scale is g/L.
func ratIntRow(f *intForm, coeffs exact.Vec, rhs *big.Rat) intRow {
	n := len(coeffs)
	at := func(j int) *big.Rat {
		if j < n {
			return coeffs[j]
		}
		return rhs
	}
	l := int64(1)
	for j := 0; j <= n; j++ {
		v := at(j)
		if v.Sign() == 0 {
			continue
		}
		d := v.Denom()
		if !d.IsInt64() {
			return wideRatRow(coeffs, rhs)
		}
		dd := d.Int64()
		var ok bool
		if l, ok = exact.MulInt64(l, dd/int64(exact.GCD64(uint64(l), uint64(dd)))); !ok {
			return wideRatRow(coeffs, rhs)
		}
	}
	a := f.alloc(n + 1)
	for j := range a {
		v := at(j)
		if v.Sign() == 0 {
			continue
		}
		num := v.Num()
		if !num.IsInt64() {
			return wideRatRow(coeffs, rhs)
		}
		var ok bool
		if a[j], ok = exact.MulInt64(num.Int64(), l/v.Denom().Int64()); !ok {
			return wideRatRow(coeffs, rhs)
		}
	}
	g := primitive(a)
	if g == 0 {
		return intRow{a: a, scale: exact.Rat64FromInt64(1)}
	}
	scale, _ := exact.MakeRat64(int64(g), l)
	return intRow{a: a, scale: scale}
}

// wideRatRow is ratIntRow's big-number path.
func wideRatRow(coeffs exact.Vec, rhs *big.Rat) intRow {
	n := len(coeffs)
	at := func(j int) *big.Rat {
		if j < n {
			return coeffs[j]
		}
		return rhs
	}
	l, g, t := big.NewInt(1), new(big.Int), new(big.Int)
	for j := 0; j <= n; j++ {
		d := at(j).Denom()
		g.GCD(nil, nil, l, d)
		l.Mul(l, t.Quo(d, g))
	}
	w := &wideRow{a: make([]*big.Int, n+1), scale: new(big.Rat)}
	g.SetInt64(0)
	for j := range w.a {
		v := at(j)
		w.a[j] = new(big.Int).Quo(l, v.Denom())
		w.a[j].Mul(w.a[j], v.Num())
		g.GCD(nil, nil, g, t.Abs(w.a[j]))
	}
	if g.Sign() == 0 {
		w.scale.SetInt64(1)
		return intRow{wide: w}
	}
	for _, v := range w.a {
		v.Quo(v, g)
	}
	w.scale.SetFrac(g, l)
	return intRow{wide: w}
}
