// Package core is CounterPoint's single-verdict feasibility layer: it ties
// μDDs (package mudd), model cones (package cone), counter confidence
// regions (package stats) and the exact LP solver (package simplex) into
// the workflow of Figure 2 (batched corpus evaluation sits
// one layer up, in package engine):
//
//	DSL → μDD → model cone → feasibility testing against confidence regions
//
// A Model wraps a μDD together with the counter set under analysis. Testing
// an observation builds its confidence region, then solves the Appendix A
// linear program: non-negative flow variables f(p) for every essential
// μpath signature (the others are conic combinations of these and add
// nothing), the counter-flow equation v = Σ S(p)·f(p) substituted into the
// per-principal-axis box constraints |eᵢ·(v − Ȳ)| ≤ √(λᵢχ²). If the LP is
// infeasible the observation violates at least one model constraint at the
// chosen confidence level, and the violated constraints are identified by
// testing each deduced half-space against the region.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/cone"
	"repro/internal/counters"
	"repro/internal/dsl"
	"repro/internal/exact"
	"repro/internal/floatlp"
	"repro/internal/mudd"
	"repro/internal/simplex"
	"repro/internal/stats"
)

// DefaultConfidence is the confidence level used throughout the paper.
const DefaultConfidence = 0.99

// lpQuantum is the dyadic grid (denominator) the LP slab bounds are
// quantised onto; see regionIntersectsCone.
const lpQuantum = 256

// Model is a microarchitectural model under test: a μDD restricted to a
// counter set of interest.
type Model struct {
	Name    string
	Diagram *mudd.Diagram
	Set     *counters.Set

	numPaths int
	kcone    *cone.Cone

	// genOnce/genF cache the cone generators' non-zero components
	// converted to float64 — the generator-dot-axis coefficient rows of the
	// feasibility LP reuse them for every observation instead of
	// re-converting each big.Rat component per verdict.
	genOnce sync.Once
	genF    []floatlp.Sparse

	// keyOnce/key cache the model content key (see ContentKey).
	keyOnce sync.Once
	key     string
}

// NewModel builds a Model from a validated μDD. set chooses the HECs under
// analysis; counter nodes outside set are ignored (unprogrammed counters do
// not count). If set is nil the diagram's own counters are used.
func NewModel(name string, d *mudd.Diagram, set *counters.Set) (*Model, error) {
	if set == nil {
		set = d.Counters()
	}
	sigs, err := d.Signatures(set)
	if err != nil {
		return nil, fmt.Errorf("core: model %q: %w", name, err)
	}
	return &Model{
		Name:     name,
		Diagram:  d,
		Set:      set,
		numPaths: len(sigs),
		kcone:    cone.NewCounts(set, sigs),
	}, nil
}

// ModelFromDSL compiles DSL source into a Model.
func ModelFromDSL(name, src string, set *counters.Set) (*Model, error) {
	d, err := dsl.Compile(name, src)
	if err != nil {
		return nil, err
	}
	return NewModel(name, d, set)
}

// NumPaths returns the number of μpaths the μDD encodes.
func (m *Model) NumPaths() int { return m.numPaths }

// Cone returns the model cone.
func (m *Model) Cone() *cone.Cone { return m.kcone }

// Constraints returns the complete set of model constraints (the cone's
// H-representation), deduced on first use and cached.
func (m *Model) Constraints() (*cone.HRep, error) {
	return m.kcone.Constraints()
}

// Restrict returns a copy of the model analysed over a sub- (or different)
// counter set, re-deriving signatures and the cone. Used by the Figure 1b /
// Figure 9 counter-group sweeps.
func (m *Model) Restrict(set *counters.Set) (*Model, error) {
	return NewModel(m.Name, m.Diagram, set)
}

// ContentKey returns a stable content identifier of the model's LP side:
// a digest of the counter set and the normalised cone generators — the
// only model state RegionLP reads. Unlike the model pointer it survives
// serialization boundaries: two models derived independently from the
// same diagram and set share a key, so content-keyed caches hit across
// re-registration and (eventually) across workers.
func (m *Model) ContentKey() string {
	m.keyOnce.Do(func() {
		h := sha256.New()
		io.WriteString(h, m.Set.Key())
		// A model's cone is built from μpath counts, so every generator
		// has its int64 row; each entry prints as its RatString would.
		var buf []byte
		for _, g := range m.kcone.Counts() {
			buf = append(buf[:0], '|')
			for _, c := range g {
				buf = append(strconv.AppendInt(buf, c, 10), ' ')
			}
			h.Write(buf)
		}
		m.key = hex.EncodeToString(h.Sum(nil)[:16])
	})
	return m.key
}

// Verdict is the outcome of testing one observation against one model.
type Verdict struct {
	Model       string
	Observation string
	Feasible    bool
	// Violations lists the deduced model constraints whose half-spaces the
	// confidence region provably misses. Populated only when infeasible and
	// constraint deduction was requested.
	Violations []cone.Constraint
	// Region is the confidence region the verdict was computed against.
	Region *stats.Region
}

// TestRegion decides whether the confidence region intersects the model
// cone (Appendix A LP). When infeasible and identifyViolations is true, the
// model constraints are deduced and each is tested against the region.
// It solves exact-only through a temporary workspace; hot paths (the
// engine's corpus evaluation) use TestRegionSolver with a pooled hybrid
// Solver instead.
func (m *Model) TestRegion(r *stats.Region, identifyViolations bool) (*Verdict, error) {
	return m.TestRegionSolver(nil, r, identifyViolations)
}

// TestRegionSolver is TestRegion through an explicit two-tier solver: the
// float filter (when sv carries one) decides certificate-backed verdicts
// and everything else falls back to the exact simplex, so the verdict is
// identical to the exact solver's by construction.
func (m *Model) TestRegionSolver(sv *Solver, r *stats.Region, identifyViolations bool) (*Verdict, error) {
	if sv == nil {
		sv = &Solver{}
	}
	p := sv.ExactWorkspace().Prepare(0) // RegionLP resets the problem to the generator count
	if err := m.RegionLP(p, r); err != nil {
		return nil, err
	}
	return m.TestRegionLP(sv, p, r, identifyViolations)
}

// TestRegionLP completes a verdict for r given its pre-built feasibility
// LP (see RegionLP). The engine caches the LP per (model, region) so
// repeated sweeps re-solve without rebuilding constraint rows. A nil sv
// solves exact-only through a temporary workspace.
//
// The float filter prices p's columns through its factorisation: row pair
// i is r's axis i dotted with the cone generators (see RegionLP).
func (m *Model) TestRegionLP(sv *Solver, p *simplex.Problem, r *stats.Region, identifyViolations bool) (*Verdict, error) {
	hint := floatlp.Structure{Axes: r.Axes, Gens: m.generatorFloats()}
	return m.VerdictForRegion(r, sv.FeasibleStructured(p, hint), identifyViolations)
}

// VerdictForRegion assembles the verdict for r from an already-decided
// feasibility answer — the completion path shared by TestRegionLP and
// the engine's content-addressed verdict cache. Violation identification
// needs no LP solve (RegionViolates is closed-form over the box), so a
// cached feasibility bit still yields the full verdict.
func (m *Model) VerdictForRegion(r *stats.Region, feasible, identifyViolations bool) (*Verdict, error) {
	v := &Verdict{Model: m.Name, Region: r, Feasible: feasible}
	if !feasible && identifyViolations {
		h, err := m.Constraints()
		if err != nil {
			return nil, err
		}
		for _, k := range h.All() {
			if RegionViolates(r, k) {
				v.Violations = append(v.Violations, k)
			}
		}
	}
	return v, nil
}

// TestObservation builds the observation's confidence region at the given
// confidence level and noise mode, then calls TestRegion.
func (m *Model) TestObservation(o *counters.Observation, confidence float64, mode stats.NoiseMode, identifyViolations bool) (*Verdict, error) {
	proj := o
	if !o.Set.Equal(m.Set) {
		proj = o.Project(m.Set)
	}
	r, err := stats.NewRegion(proj, confidence, mode)
	if err != nil {
		return nil, err
	}
	verdict, err := m.TestRegion(r, identifyViolations)
	if err != nil {
		return nil, err
	}
	verdict.Observation = o.Label
	return verdict, nil
}

// generatorFloats returns the essential cone generators' non-zero
// components as float64s (μpath signatures increment few of the counters
// under analysis), converted once per (model, counter set) from the int64
// counts and shared by every subsequent verdict. The first call runs the
// cone's essential pass unless deduction already has.
func (m *Model) generatorFloats() []floatlp.Sparse {
	m.genOnce.Do(func() {
		counts := m.kcone.Counts()
		ess := m.kcone.EssentialIndices()
		m.genF = make([]floatlp.Sparse, len(ess))
		for j, e := range ess {
			for k, c := range counts[e] {
				if c != 0 {
					m.genF[j].Idx = append(m.genF[j].Idx, k)
					m.genF[j].Val = append(m.genF[j].Val, float64(c))
				}
			}
		}
	})
	return m.genF
}

// RegionLP builds the Appendix A feasibility LP for r into p, replacing
// p's contents: the counter-flow equation is substituted in, so the
// variables are the flows f ≥ 0 down each essential cone generator,
// constrained so that v = E·f lies inside every principal-axis slab of the
// region. Counter non-negativity is implied (E ≥ 0, f ≥ 0).
//
// The columns are the essential generators E rather than every distinct
// signature G: cone(E) = cone(G) exactly, so {E·f : f ≥ 0} is the same
// set of counter vectors and the LP has the same answer as the one over
// G, which only adds columns that are non-negative combinations of E's.
//
// Every coefficient is a float64 dot product of an axis (snapped to a
// dyadic grid) with a generator (small integers), and every bound is
// quantised onto a dyadic grid, so each row is a vector of exact float64
// values: p.AddFloatRow writes it straight into the problem's primitive
// integer form, touching no big.Rat.
//
// The LP depends only on (model, region); solving never mutates it, so
// callers may cache the problem and re-solve it from any workspace.
func (m *Model) RegionLP(p *simplex.Problem, r *stats.Region) error {
	return m.regionLP(p, r, m.generatorFloats())
}

// regionLP is RegionLP with gens as the columns.
func (m *Model) regionLP(p *simplex.Problem, r *stats.Region, gens []floatlp.Sparse) error {
	if !r.Set.Equal(m.Set) {
		return fmt.Errorf("core: region counter set %v does not match model set %v", r.Set, m.Set)
	}
	p.Reset(len(gens))
	n := m.Set.Len()
	var buf [256]float64 // the dot products of one axis, on the stack for most models
	dots := buf[:]
	if len(gens) > len(buf) {
		dots = make([]float64, len(gens))
	}
	dots = dots[:len(gens)]
	for i, axis := range r.Axes {
		for _, v := range axis {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: model %q, axis %d: non-finite component %v", m.Name, i, v)
			}
		}
		// Summing only a generator's non-zero components gives the dense
		// dot product bit for bit: with a finite axis every skipped term is
		// ±0, and adding ±0 to a sum that starts at +0 changes nothing.
		for j, g := range gens {
			dot := 0.0
			for t, k := range g.Idx {
				dot += axis[k] * g.Val[t]
			}
			dots[j] = dot
		}
		eDotMean := 0.0
		for k := 0; k < n; k++ {
			eDotMean += axis[k] * r.Mean[k]
		}
		// Quantise the slab bounds outward onto a coarse dyadic grid: the
		// box only grows (never flips a verdict to infeasible), and the LP
		// works with denominator-256 bounds instead of 2^52 ones.
		hi, err := exact.QuantizeFloat(eDotMean+r.HalfWidths[i], true, lpQuantum)
		if err != nil {
			return fmt.Errorf("core: model %q, axis %d upper bound: %w", m.Name, i, err)
		}
		lo, err := exact.QuantizeFloat(eDotMean-r.HalfWidths[i], false, lpQuantum)
		if err != nil {
			return fmt.Errorf("core: model %q, axis %d lower bound: %w", m.Name, i, err)
		}
		// e·(G f) ≤ e·Ȳ + h   and   e·(G f) ≥ e·Ȳ − h
		if err := p.AddFloatRow(simplex.LE, dots, hi); err != nil {
			return fmt.Errorf("core: model %q, axis %d: %w", m.Name, i, err)
		}
		if err := p.AddFloatRow(simplex.GE, dots, lo); err != nil {
			return fmt.Errorf("core: model %q, axis %d: %w", m.Name, i, err)
		}
	}
	return nil
}

// RegionViolates reports whether the confidence region lies entirely
// outside the constraint's feasible half-space (or hyperplane), using the
// closed-form extrema of a linear function over the principal-axis box:
//
//	min/max over box of a·v = a·Ȳ ∓ Σᵢ |a·eᵢ|·hᵢ
//
// The coefficients are the constraint's float table (cone.Constraint.
// Floats), stored once per model for deduced constraints, so testing a
// deduced constraint allocates nothing.
//
// The spread sums non-negative terms (half-widths are never negative), so
// its partial sums never decrease: once one reaches the centre's distance
// from the half-space (center for LE, |center| for EQ) the region is known
// to touch the feasible side and the rest of the sum is skipped. The
// answer is the full sum's, bit for bit.
func RegionViolates(r *stats.Region, k cone.Constraint) bool {
	af := k.Floats()
	center := 0.0
	for i, a := range af {
		center += a * r.Mean[i]
	}
	limit := center
	if k.Rel == cone.EQZero {
		limit = math.Abs(center)
	}
	spread := 0.0
	for i, axis := range r.Axes {
		if spread >= limit {
			return false
		}
		dot := 0.0
		for j, a := range af {
			dot += a * axis[j]
		}
		if dot < 0 {
			dot = -dot
		}
		spread += dot * r.HalfWidths[i]
	}
	min, max := center-spread, center+spread
	if k.Rel == cone.EQZero {
		return min > 0 || max < 0
	}
	return min > 0 // no point of the box satisfies a·v ≤ 0
}

// Corpus evaluation lives in internal/engine: engine.Session.EvaluateEach
// and Evaluate replace the worker pool the seed version of this package
// rolled inline, sharing confidence-region and LP-workspace caches across
// observations and models.
