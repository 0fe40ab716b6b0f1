// Package cone implements model cones (paper §3) and model-constraint
// deduction (paper §6).
//
// The model cone K_D of a μDD D is the set of all HEC value combinations
// producible by non-negative flows of micro-ops over D's μpaths:
//
//	K_D = { Σ_p S(p)·f(p) : f(p) ≥ 0 }
//
// By the Minkowski–Weyl theorem, K_D has a dual H-representation as a
// finite set of model constraints (equalities and inequalities). The paper
// derives it with a custom conic-hull procedure on top of a convex-hull
// solver; we compute the identical object exactly over ℚ with the double
// description method applied to the dual cone: the facet normals of
// cone(S) are precisely the extreme rays of {a : a·s ≤ 0 ∀ s ∈ S}.
//
// The deduction pipeline mirrors §6:
//  1. normalise signatures by their GCD and deduplicate;
//  2. Gaussian elimination identifies equality constraints (the orthogonal
//     complement of the signatures' span);
//  3. signatures interior to the cone are removed using linear programming;
//  4. the conic hull's facets are computed (double description on the dual)
//     and emitted as inequality constraints.
package cone

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"sort"
	"strings"
	"sync"

	"repro/internal/counters"
	"repro/internal/exact"
)

// Rel distinguishes equality from inequality model constraints.
type Rel int

// Constraint relations: Coeffs·v ≤ 0 or Coeffs·v = 0.
const (
	LEZero Rel = iota
	EQZero
)

// Constraint is one model constraint a·v REL 0 over the counter set.
type Constraint struct {
	Set    *counters.Set
	Coeffs exact.Vec
	Rel    Rel

	// floats and text hold Floats() and String() for constraints deduced
	// by Cone.Constraints, converted once per model; a constraint built by
	// hand leaves them empty and converts on every call. Either way they
	// are derived from Coeffs, so a copy must not be given other Coeffs.
	floats []float64
	text   string
}

// Floats returns the coefficients as float64s, each the nearest to its
// rational (big.Rat.Float64). A deduced constraint returns its stored
// table, which callers must not modify.
func (c Constraint) Floats() []float64 {
	if c.floats != nil {
		return c.floats
	}
	return c.coeffFloats()
}

func (c Constraint) coeffFloats() []float64 {
	af := make([]float64, len(c.Coeffs))
	for i, a := range c.Coeffs {
		af[i], _ = a.Float64()
	}
	return af
}

// Eval returns a·v for a float-valued counter vector aligned with the
// constraint's set.
func (c Constraint) Eval(v []float64) float64 {
	sum := 0.0
	for i, f := range c.Floats() {
		sum += f * v[i]
	}
	return sum
}

// SatisfiedBy reports whether the exact vector v satisfies the constraint.
func (c Constraint) SatisfiedBy(v exact.Vec) bool {
	d := c.Coeffs.Dot(v)
	if c.Rel == EQZero {
		return d.Sign() == 0
	}
	return d.Sign() <= 0
}

// String renders the constraint with negative terms moved to the right-hand
// side, matching the paper's presentation, e.g.
// "load.pde$_miss <= load.causes_walk". A deduced constraint returns the
// text stored when it was deduced.
func (c Constraint) String() string {
	if c.text != "" {
		return c.text
	}
	return c.format()
}

func (c Constraint) format() string {
	var lhs, rhs []string
	term := func(coeff *big.Rat, ev counters.Event) string {
		abs := new(big.Rat).Abs(coeff)
		if abs.Cmp(big.NewRat(1, 1)) == 0 {
			return string(ev)
		}
		return abs.RatString() + "*" + string(ev)
	}
	for i, a := range c.Coeffs {
		switch a.Sign() {
		case 1:
			lhs = append(lhs, term(a, c.Set.At(i)))
		case -1:
			rhs = append(rhs, term(a, c.Set.At(i)))
		}
	}
	if len(lhs) == 0 {
		lhs = []string{"0"}
	}
	if len(rhs) == 0 {
		rhs = []string{"0"}
	}
	rel := "<="
	if c.Rel == EQZero {
		rel = "="
	}
	return strings.Join(lhs, " + ") + " " + rel + " " + strings.Join(rhs, " + ")
}

// Cone is a model cone in V-representation (generators = μpath counter
// signatures), with lazy exact H-representation.
//
// The generators are held as int64 counts — μpath signatures are small
// non-negative integers — and become big.Rat vectors only for callers of
// Generators. A cone built by New from exact vectors with an entry beyond
// int64 is wide: it keeps the exact vectors and deduces on big.Rat.
type Cone struct {
	Set *counters.Set

	// gens64 holds the normalised, deduplicated, non-zero generators'
	// integer entries; a nil row marks a generator of a wide cone with an
	// entry beyond int64.
	gens64 [][]int64
	wide   bool // some row of gens64 is nil

	gensOnce sync.Once   // builds gens for Generators
	gens     []exact.Vec // the generators as exact vectors; set by New for a wide cone

	essOnce sync.Once // guards the essential pass: deduction and EssentialIndices share one run
	ess     []int     // indices of the essential generators, in generator order

	hOnce sync.Once // guards the deduction: concurrent first callers share one run
	hRep  *HRep     // cached constraint system
	hErr  error
}

// HRep is the H-representation of a model cone: the complete set of model
// constraints implied by a μDD.
type HRep struct {
	Equalities   []Constraint
	Inequalities []Constraint

	all []Constraint // All's result, built with the deduced system
}

// All returns equalities followed by inequalities. For a deduced system
// the list is built once and shared: callers must not modify its
// elements (appending is safe, its capacity is its length).
func (h *HRep) All() []Constraint {
	if h.all != nil {
		return h.all
	}
	return h.join()
}

func (h *HRep) join() []Constraint {
	out := make([]Constraint, 0, len(h.Equalities)+len(h.Inequalities))
	out = append(out, h.Equalities...)
	return append(out, h.Inequalities...)
}

// tabulate stores each constraint's float coefficients and text, and the
// joined list, so verdicts read them instead of converting big.Rats.
func (h *HRep) tabulate() {
	for _, cs := range [][]Constraint{h.Equalities, h.Inequalities} {
		for i := range cs {
			cs[i].floats = cs[i].coeffFloats()
			cs[i].text = cs[i].format()
		}
	}
	h.all = h.join()
}

// New builds a cone over set from raw signatures: signatures are GCD-
// normalised, deduplicated, and zero signatures dropped (they generate
// nothing). Signatures that all fit the int64 kernel go through NewCounts.
func New(set *counters.Set, signatures []exact.Vec) *Cone {
	sigs := make([]exact.Vec64, len(signatures))
	for i, s := range signatures {
		checkWidth(set, len(s))
		v64, ok := exact.Vec64FromVec(s)
		if !ok {
			return newWide(set, signatures)
		}
		sigs[i] = v64
	}
	return NewCounts(set, sigs)
}

// NewCounts builds a cone over set from integer signatures (μpath counts,
// as mudd.Diagram.Signatures returns them). Like New it normalises by the
// GCD, drops zero signatures and deduplicates, keeping first-occurrence
// order, all on int64.
func NewCounts(set *counters.Set, signatures []exact.Vec64) *Cone {
	n := set.Len()
	c := &Cone{Set: set}
	seen := make(map[string]bool, len(signatures))
	scratch := make([]int64, n)
	key := make([]byte, 0, 8*n)
	var flat []int64
	gens := 0
	for _, s := range signatures {
		checkWidth(set, s.Len())
		// The positive denominator does not change the normalised form.
		copy(scratch, s.Num)
		if allZero(scratch) {
			continue
		}
		exact.DivideByGCD(scratch)
		key = key[:0]
		for _, x := range scratch {
			key = binary.AppendVarint(key, x)
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		flat = append(flat, scratch...)
		gens++
	}
	c.gens64 = make([][]int64, gens)
	for i := range c.gens64 {
		c.gens64[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return c
}

// newWide is New for signatures with an entry beyond int64: it normalises
// and deduplicates on big.Rat and keeps the exact vectors.
func newWide(set *counters.Set, signatures []exact.Vec) *Cone {
	c := &Cone{Set: set}
	seen := map[string]bool{}
	for _, s := range signatures {
		n := s.NormalizeIntegral()
		if n.IsZero() {
			continue
		}
		k := n.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		c.gens = append(c.gens, n)
		var row []int64
		if v64, ok := exact.Vec64FromVec(n); ok {
			row = v64.Num
		} else {
			c.wide = true
		}
		c.gens64 = append(c.gens64, row)
	}
	return c
}

func checkWidth(set *counters.Set, w int) {
	if w != set.Len() {
		panic(fmt.Sprintf("cone: signature width %d != set width %d", w, set.Len()))
	}
}

// Len returns the number of generators.
func (c *Cone) Len() int { return len(c.gens64) }

// Generators returns the normalised, deduplicated, non-zero generators as
// exact vectors, built on first call. Callers must not modify them.
func (c *Cone) Generators() []exact.Vec {
	c.gensOnce.Do(func() {
		if c.gens != nil {
			return // built by newWide
		}
		c.gens = make([]exact.Vec, len(c.gens64))
		for i, g := range c.gens64 {
			c.gens[i] = exact.Vec64{Num: g, Den: 1}.Vec()
		}
	})
	return c.gens
}

// Counts returns the generators' integer entries, in Generators order. A
// row is nil when the generator has an entry beyond int64, which only a
// cone New built from such exact vectors has. Callers must not modify
// them.
func (c *Cone) Counts() [][]int64 { return c.gens64 }

// Contains reports whether v lies in the cone, i.e. whether non-negative
// flows f with Σ f_i g_i = v exist. One-off convenience: each call builds
// a fresh solver.
func (c *Cone) Contains(v exact.Vec) bool {
	return newHullSolver().inHull(vecOf(v), c.hullGens())
}

// hullGens returns the generators as membership-LP vectors.
func (c *Cone) hullGens() []hullVec {
	out := make([]hullVec, len(c.gens64))
	for i, g := range c.gens64 {
		if g != nil {
			out[i] = newHullVec(g, nil)
		} else {
			out[i] = hullVec{v: c.Generators()[i]}
		}
	}
	return out
}

// EssentialIndices returns the indices (into Generators and Counts) of
// the generators that are not redundant, i.e. not expressible as conic
// combinations of the remaining generators: the paper's LP-based
// interior-signature pruning step. cone(G) is exactly the cone of these
// generators. Computed once and shared with deduction; callers must not
// modify the result.
func (c *Cone) EssentialIndices() []int { return c.essential(nil) }

// essential is EssentialIndices, deciding the pass's membership LPs on hs
// when this call runs it (a fresh solver when hs is nil).
func (c *Cone) essential(hs *hullSolver) []int {
	c.essOnce.Do(func() {
		if hs == nil {
			hs = newHullSolver()
		}
		c.ess = hs.essential(c.hullGens())
	})
	return c.ess
}

// EssentialGenerators returns the essential generators (see
// EssentialIndices) as exact vectors.
func (c *Cone) EssentialGenerators() []exact.Vec {
	keep := c.EssentialIndices()
	out := make([]exact.Vec, len(keep))
	for i, k := range keep {
		out[i] = c.Generators()[k]
	}
	return out
}

// Constraints computes (and caches) the complete H-representation of the
// cone: equality constraints spanning the orthogonal complement of the
// generators, plus the facet inequalities of the conic hull. Safe for
// concurrent use: first callers racing on an undeduced cone (the service
// layer's concurrent requests) share a single deduction.
func (c *Cone) Constraints() (*HRep, error) {
	c.hOnce.Do(func() {
		hs := newHullSolver()
		if c.hRep, c.hErr = c.buildConstraints(hs, c.essential(hs)); c.hErr == nil {
			c.hRep.tabulate()
		}
	})
	return c.hRep, c.hErr
}

// buildConstraints deduces the H-representation from the essential
// generators' indices keep, deciding every membership LP on hs. Each
// linear-algebra step runs on the int64 kernel and redoes itself on
// big.Rat on overflow (or for a wide cone).
func (c *Cone) buildConstraints(hs *hullSolver, keep []int) (*HRep, error) {
	h := &HRep{}

	// Step 2 (§6): equality constraints from Gaussian elimination — the
	// null space of the generator matrix read as rows.
	for _, e := range c.equalities() {
		h.Equalities = append(h.Equalities, Constraint{Set: c.Set, Coeffs: canonicalSign(e), Rel: EQZero})
	}

	if c.Len() == 0 {
		// The trivial cone {0}: x = 0 componentwise, already captured by the
		// n equality constraints above.
		return h, nil
	}

	// Step 3 (§6), pruning interior/redundant generators with LP, gave
	// keep. Step 4 (§6): facets of the conic hull.
	facets, err := c.facets(hs, keep)
	if err != nil {
		return nil, err
	}
	for _, a := range facets {
		h.Inequalities = append(h.Inequalities, Constraint{Set: c.Set, Coeffs: a, Rel: LEZero})
	}
	sortConstraints(h.Inequalities)
	sortConstraints(h.Equalities)
	return h, nil
}

// equalities returns a basis of the generators' orthogonal complement,
// each vector coprime integral.
func (c *Cone) equalities() []exact.Vec {
	n := c.Set.Len()
	if !c.wide {
		if basis, ok := exact.NullSpace64(c.gens64, n); ok {
			out := make([]exact.Vec, len(basis))
			for i, b := range basis {
				out[i] = exact.Vec64{Num: b, Den: 1}.Vec()
			}
			return out
		}
	}
	return exact.NullSpaceBasis(c.Generators(), n)
}

// facets returns the facet normals of cone(gens[keep]), coprime integral.
//
// The generators are expressed in the coordinates of their row space's
// reduced echelon basis B, which makes the cone full-dimensional for the
// dual computation; a generator's coordinates are simply its entries at
// B's pivot columns. The facets of cone(ys) are the extreme rays of the
// dual cone {a : a·y ≤ 0 for all y} (double description), and each ray a
// lifts back to counter space as the α in span(B) with α·b_j = a_j.
func (c *Cone) facets(hs *hullSolver, keep []int) ([]exact.Vec, error) {
	n := c.Set.Len()
	if !c.wide {
		gens := make([][]int64, len(keep))
		for i, k := range keep {
			gens[i] = c.gens64[k]
		}
		if e, ok := exact.ReduceEchelon64(gens, n); ok {
			ys := make([]ddY, len(gens))
			for i, g := range gens {
				y := make([]int64, len(e.Pivots))
				for j, pc := range e.Pivots {
					y[j] = g[pc]
				}
				ys[i] = ddY{iv: y}
			}
			rays, err := dualExtremeRays(hs, ys, len(e.Pivots))
			if err != nil {
				return nil, err
			}
			if out, ok := lift64(e, rays); ok {
				return out, nil
			}
			// The lift overflowed: redo it on big.Rat over the rational
			// echelon basis, row i being Rows[i]/p_i.
			basis := make([]exact.Vec, len(e.Rows))
			for i, r := range e.Rows {
				basis[i] = exact.Vec64{Num: r, Den: r[e.Pivots[i]]}.Vec()
			}
			return liftRat(basis, rays)
		}
	}
	all := c.Generators()
	m := exact.NewMat(0, n)
	for _, k := range keep {
		m.Data = append(m.Data, all[k].Clone())
	}
	m.Rows = len(m.Data)
	pivots := m.RowEchelon()
	ys := make([]ddY, len(keep))
	for i, k := range keep {
		y := make(exact.Vec, len(pivots))
		for j, pc := range pivots {
			y[j] = new(big.Rat).Set(all[k][pc])
		}
		ys[i] = newDDY(y)
	}
	rays, err := dualExtremeRays(hs, ys, len(pivots))
	if err != nil {
		return nil, err
	}
	return liftRat(m.Data[:len(pivots)], rays)
}

// lift64 lifts the dual rays to counter space on the int64 kernel. With
// R the echelon's integer rows (R_i = p_i·b_i, p_i its pivot entry) the
// lift solves (R·Rᵀ)·u = (p_i·a_i)_i for every ray a at once, reducing
// the Gram matrix R·Rᵀ a single time, and takes α = Σ u_i R_i; ok is
// false on overflow or a wide ray.
func lift64(e exact.Echelon64, rays []ddRay) ([]exact.Vec, bool) {
	if len(rays) == 0 {
		return nil, true
	}
	d, k := len(e.Rows), len(rays)
	aug := make([][]int64, d)
	buf := make([]int64, d*(d+k))
	for i := range aug {
		aug[i] = buf[i*(d+k) : (i+1)*(d+k) : (i+1)*(d+k)]
	}
	for i, ri := range e.Rows {
		for j := 0; j <= i; j++ {
			g, ok := dot64(ri, e.Rows[j])
			if !ok {
				return nil, false
			}
			aug[i][j], aug[j][i] = g, g
		}
	}
	for r := range rays {
		a := rays[r].iv
		if a == nil {
			return nil, false
		}
		for i, ri := range e.Rows {
			b, ok := exact.MulInt64(ri[e.Pivots[i]], a[i])
			if !ok {
				return nil, false
			}
			aug[i][d+r] = b
		}
	}
	us, _, ok := exact.SolveSquareMany64(aug, k)
	if !ok {
		return nil, false
	}
	out := make([]exact.Vec, k)
	alpha := make([]int64, len(e.Rows[0]))
	for r, u := range us {
		// α is Σ u_i R_i over a positive denominator: the direction is the
		// numerators' combination.
		clear(alpha)
		for i, ri := range e.Rows {
			for j, x := range ri {
				if u[i] == 0 || x == 0 {
					continue
				}
				t, ok := exact.MulInt64(u[i], x)
				if !ok {
					return nil, false
				}
				if alpha[j], ok = exact.AddInt64(alpha[j], t); !ok || alpha[j] == math.MinInt64 {
					return nil, false
				}
			}
		}
		out[r] = exact.Vec64{Num: alpha, Den: 1}.NormalizeIntegral().Vec()
	}
	return out, true
}

// dot64 returns x·y, ok=false on overflow.
func dot64(x, y []int64) (int64, bool) {
	var sum int64
	for i, a := range x {
		if a == 0 || y[i] == 0 {
			continue
		}
		t, ok := exact.MulInt64(a, y[i])
		if !ok {
			return 0, false
		}
		if sum, ok = exact.AddInt64(sum, t); !ok {
			return 0, false
		}
	}
	return sum, true
}

// liftRat lifts the dual rays to counter space on big.Rat: α in
// span(basis) with α·b_j = a_j, i.e. solve Gram·w = a, α = Σ w_k b_k.
func liftRat(basis []exact.Vec, rays []ddRay) ([]exact.Vec, error) {
	d := len(basis)
	gram := exact.NewMat(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			gram.Data[i][j].Set(basis[i].Dot(basis[j]))
		}
	}
	out := make([]exact.Vec, len(rays))
	for r := range rays {
		w, ok := solveLinear(gram, rays[r].vec())
		if !ok {
			return nil, fmt.Errorf("cone: singular Gram matrix (internal error)")
		}
		alpha := exact.NewVec(len(basis[0]))
		for k, bk := range basis {
			alpha.AddScaled(w[k], bk)
		}
		out[r] = alpha.NormalizeIntegral()
	}
	return out, nil
}

// Implies reports whether every generator of the cone satisfies k — i.e.
// whether the model implies constraint k (used to confirm refinements such
// as Figure 6d, where the refined μDD must no longer imply the violated
// constraint). The generator dot products run on the int64 kernel (the
// constraint's coefficients and the integer generators), falling back to
// exact big.Rat arithmetic per generator on overflow.
func (c *Cone) Implies(k Constraint) bool {
	k64, k64ok := exact.Vec64FromVec(k.Coeffs)
	for i, g := range c.gens64 {
		if k64ok && g != nil {
			if s, ok := k64.IntDotSign(g); ok {
				if k.Rel == EQZero {
					if s != 0 {
						return false
					}
				} else if s > 0 {
					return false
				}
				continue
			}
		}
		if !k.SatisfiedBy(c.Generators()[i]) {
			return false
		}
	}
	return true
}

// SubsetOf reports whether c's cone is contained in d's cone (every
// generator of c lies in d). Used to verify that refinement steps expand
// the model cone (paper §5: "the model cones are verified to ensure that
// the model cone is expanded").
func (c *Cone) SubsetOf(d *Cone) bool {
	h, gens := newHullSolver(), d.hullGens()
	for _, g := range c.hullGens() {
		if !h.inHull(g, gens) {
			return false
		}
	}
	return true
}

// canonicalSign flips a vector so that its first non-zero entry is positive,
// giving equality constraints a canonical orientation.
func canonicalSign(v exact.Vec) exact.Vec {
	for _, x := range v {
		if x.Sign() > 0 {
			return v
		}
		if x.Sign() < 0 {
			return v.Scale(big.NewRat(-1, 1))
		}
	}
	return v
}

// sortConstraints orders cs by their coefficients' keys, each computed
// once.
func sortConstraints(cs []Constraint) {
	keys := make([]string, len(cs))
	for i, c := range cs {
		keys[i] = c.Coeffs.Key()
	}
	sort.Sort(byKey{cs, keys})
}

type byKey struct {
	cs   []Constraint
	keys []string
}

func (b byKey) Len() int           { return len(b.cs) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.cs[i], b.cs[j] = b.cs[j], b.cs[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// solveLinear solves the square system A·x = b exactly.
func solveLinear(a *exact.Mat, b exact.Vec) (exact.Vec, bool) {
	n := a.Rows
	aug := exact.NewMat(n, n+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			aug.Data[i][j].Set(a.Data[i][j])
		}
		aug.Data[i][n].Set(b[i])
	}
	pivots := aug.RowEchelon()
	if len(pivots) != n {
		return nil, false
	}
	x := exact.NewVec(n)
	for i, pc := range pivots {
		if pc >= n {
			return nil, false
		}
		x[pc].Set(aug.Data[i][n])
	}
	return x, true
}
