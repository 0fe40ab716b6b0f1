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
	"fmt"
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
type Cone struct {
	Set        *counters.Set
	Generators []exact.Vec // normalised, deduplicated, non-zero

	hOnce sync.Once // guards the deduction: concurrent first callers share one run
	hRep  *HRep     // cached constraint system
	hErr  error

	// gen64 caches the generators' int64 kernel image (generators are
	// GCD-normalised integer vectors, so they virtually always fit); nil
	// rows mark generators too wide for the kernel. Implies runs its dot
	// products on this cache instead of big.Rat.
	gen64Once sync.Once
	gen64     [][]int64
}

// generators64 returns (building once) the int64 image of the generators.
func (c *Cone) generators64() [][]int64 {
	c.gen64Once.Do(func() {
		c.gen64 = make([][]int64, len(c.Generators))
		for i, g := range c.Generators {
			if v64, ok := exact.Vec64FromVec(g); ok && v64.Den == 1 {
				c.gen64[i] = v64.Num
			}
		}
	})
	return c.gen64
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
// nothing).
func New(set *counters.Set, signatures []exact.Vec) *Cone {
	c := &Cone{Set: set}
	seen := map[string]bool{}
	for _, s := range signatures {
		if len(s) != set.Len() {
			panic(fmt.Sprintf("cone: signature width %d != set width %d", len(s), set.Len()))
		}
		n := s.NormalizeIntegral()
		if n.IsZero() {
			continue
		}
		k := n.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		c.Generators = append(c.Generators, n)
	}
	return c
}

// Contains reports whether v lies in the cone, i.e. whether non-negative
// flows f with Σ f_i g_i = v exist. One-off convenience: each call builds
// a fresh solver.
func (c *Cone) Contains(v exact.Vec) bool {
	return newHullSolver().inHull(vecOf(v), c.hullGens())
}

// hullGens returns the generators as membership-LP vectors.
func (c *Cone) hullGens() []hullVec {
	gen64 := c.generators64()
	out := make([]hullVec, len(c.Generators))
	for i, g := range c.Generators {
		out[i] = newHullVec(gen64[i], g)
	}
	return out
}

// EssentialGenerators returns the generators that are not redundant, i.e.
// those not expressible as conic combinations of the remaining generators.
// This is the paper's LP-based interior-signature pruning step.
func (c *Cone) EssentialGenerators() []exact.Vec {
	return c.essentialGenerators(newHullSolver())
}

func (c *Cone) essentialGenerators(h *hullSolver) []exact.Vec {
	keep := h.essential(c.hullGens())
	out := make([]exact.Vec, len(keep))
	for i, k := range keep {
		out[i] = c.Generators[k]
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
		if c.hRep, c.hErr = c.buildConstraints(newHullSolver()); c.hErr == nil {
			c.hRep.tabulate()
		}
	})
	return c.hRep, c.hErr
}

// buildConstraints deduces the H-representation, deciding every
// membership LP on hs.
func (c *Cone) buildConstraints(hs *hullSolver) (*HRep, error) {
	n := c.Set.Len()
	h := &HRep{}

	// Step 2 (§6): equality constraints from Gaussian elimination — the
	// null space of the generator matrix read as rows.
	for _, e := range exact.NullSpaceBasis(c.Generators, n) {
		h.Equalities = append(h.Equalities, Constraint{Set: c.Set, Coeffs: canonicalSign(e), Rel: EQZero})
	}

	if len(c.Generators) == 0 {
		// The trivial cone {0}: x = 0 componentwise, already captured by the
		// n equality constraints above.
		return h, nil
	}

	// Step 3 (§6): prune interior/redundant generators with LP.
	gens := c.essentialGenerators(hs)

	// Express generators in coordinates of a row-space basis B, making the
	// cone full-dimensional for the dual computation.
	basis := exact.RowSpaceBasis(gens)
	d := len(basis)
	ys := make([]exact.Vec, len(gens))
	for i, g := range gens {
		y, ok := exact.SolveInSpan(g, basis)
		if !ok {
			return nil, fmt.Errorf("cone: generator not in its own span (internal error)")
		}
		ys[i] = y
	}

	// Step 4 (§6): facets of cone(ys) = extreme rays of the dual cone
	// {a in R^d : a·y ≤ 0 for all y}, via exact double description.
	rays, err := dualExtremeRays(hs, ys, d)
	if err != nil {
		return nil, err
	}

	// Lift each dual ray a back to counter space: find α in span(B) with
	// α·b_j = a_j, i.e. solve Gram·w = a, α = Σ w_k b_k.
	gram := exact.NewMat(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			gram.Data[i][j].Set(basis[i].Dot(basis[j]))
		}
	}
	for _, a := range rays {
		w, ok := solveLinear(gram, a)
		if !ok {
			return nil, fmt.Errorf("cone: singular Gram matrix (internal error)")
		}
		alpha := exact.NewVec(n)
		for k, bk := range basis {
			alpha.AddScaled(w[k], bk)
		}
		alpha = alpha.NormalizeIntegral()
		h.Inequalities = append(h.Inequalities, Constraint{Set: c.Set, Coeffs: alpha, Rel: LEZero})
	}
	sortConstraints(h.Inequalities)
	sortConstraints(h.Equalities)
	return h, nil
}

// Implies reports whether every generator of the cone satisfies k — i.e.
// whether the model implies constraint k (used to confirm refinements such
// as Figure 6d, where the refined μDD must no longer imply the violated
// constraint). The generator dot products run on the int64 kernel (the
// constraint's coefficients and the cached integer generators), falling
// back to exact big.Rat arithmetic per generator on overflow.
func (c *Cone) Implies(k Constraint) bool {
	k64, k64ok := exact.Vec64FromVec(k.Coeffs)
	gen64 := c.generators64()
	for i, g := range c.Generators {
		if k64ok && gen64[i] != nil {
			if s, ok := k64.IntDotSign(gen64[i]); ok {
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
		if !k.SatisfiedBy(g) {
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

func sortConstraints(cs []Constraint) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Coeffs.Key() < cs[j].Coeffs.Key() })
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
