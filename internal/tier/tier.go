// Package tier is the two-tier feasibility solver: a float64
// revised-simplex filter (internal/floatlp) in front of the exact rational
// simplex (internal/simplex). The filter's claims are certificate-backed
// and verified over ℚ; anything unverifiable falls back to the exact
// solver, so the hybrid's answers are bit-exact by construction — the
// exact solver remains the oracle, it just stops being the common path.
//
// Every LP of the system goes through it: the region LPs behind each
// verdict (package core, which keeps its historical names Solver,
// SolverStats and SolverCounts as aliases) and the cone-membership LPs of
// constraint deduction (package cone).
//
// Both exact stages run on the int64 kernel (see internal/exact and
// simplex/kernel.go): certificates are checked with overflow-checked Rat64
// dot products, and exact solves run the integer-pivoting tableau,
// promoting to big arithmetic per element on overflow. The kernel
// fast-path and promotion counters below surface how often that happens.

package tier

import (
	"sync/atomic"

	"repro/internal/floatlp"
	"repro/internal/simplex"
)

// Stats counts two-tier solver activity. All counters are atomic:
// one Stats is shared by every worker of an engine. The zero value
// is ready to use.
type Stats struct {
	evaluations      atomic.Uint64
	filterFeasible   atomic.Uint64
	filterInfeasible atomic.Uint64
	certFailures     atomic.Uint64
	exactFallbacks   atomic.Uint64
	sizeGated        atomic.Uint64

	kernelFastSolves     atomic.Uint64
	kernelPromotedSolves atomic.Uint64
	kernelPromotions     atomic.Uint64
	certifyKernel        atomic.Uint64
	certifyBigRat        atomic.Uint64
}

// Counts is a point-in-time snapshot of Stats, shaped for JSON telemetry
// (counterpointd's /stats endpoint).
type Counts struct {
	// Evaluations counts feasibility LPs decided (one per verdict).
	Evaluations uint64 `json:"evaluations"`
	// FilterFeasible / FilterInfeasible count verdicts decided by the
	// float tier with an exactly-verified certificate. Every filter
	// refutation is certified by the exact dual of the filter's final
	// phase-1 basis.
	FilterFeasible   uint64 `json:"filter_feasible"`
	FilterInfeasible uint64 `json:"filter_infeasible"`
	// CertFailures counts evaluations whose last float-tier claim failed
	// exact verification (each also counts an exact fallback). A tightened
	// solve's basis that fails is not counted: the untightened solve's
	// claim gets its turn first.
	CertFailures uint64 `json:"certification_failures"`
	// ExactFallbacks counts verdicts decided by the exact tier — because
	// the filter was disabled, the LP was below the filter's size gate,
	// the filter was inconclusive, or certification failed.
	ExactFallbacks uint64 `json:"exact_fallbacks"`
	// SizeGated counts the ExactFallbacks that went to the exact tier
	// without a filter attempt because the LP was below FilterMinSize (a
	// subset of ExactFallbacks). Only the rest are filter misses.
	SizeGated uint64 `json:"exact_size_gated"`

	// KernelFastSolves counts exact-tier solves that completed entirely in
	// overflow-checked int64 arithmetic; KernelPromotedSolves counts those
	// that promoted at least one tableau element to big arithmetic, and
	// KernelPromotions totals the element promotions. The promotion rate —
	// never hidden — is the honesty metric of the int64 kernel: verdicts
	// are bit-identical either way, promotions only cost speed.
	KernelFastSolves     uint64 `json:"kernel_fast_solves"`
	KernelPromotedSolves uint64 `json:"kernel_promoted_solves"`
	KernelPromotions     uint64 `json:"kernel_promotions"`
	// CertifyKernel / CertifyBigRat split certificate checks by arithmetic
	// path: fully int64-kernel versus the gcd-free big.Int fallback
	// (the JSON name keeps its historical "bigrat"). A refutation certified
	// by the untightened solve's basis after the tightened solve's basis
	// failed counts two checks.
	CertifyKernel uint64 `json:"certifications_int64"`
	CertifyBigRat uint64 `json:"certifications_bigrat"`

	// WarmSolves and WarmDualPivots are always 0: the warm-start tier is
	// gone. ColdSolves counts from-scratch exact solves and always equals
	// ExactFallbacks. All three remain only for the bench module, which
	// still reads them.
	WarmSolves     uint64 `json:"warm_solves"`
	WarmDualPivots uint64 `json:"warm_dual_pivots"`
	ColdSolves     uint64 `json:"cold_solves"`
}

// FilterHits is the number of evaluations the float tier settled.
func (c Counts) FilterHits() uint64 { return c.FilterFeasible + c.FilterInfeasible }

// Snapshot returns current counter values.
func (s *Stats) Snapshot() Counts {
	c := Counts{
		Evaluations:          s.evaluations.Load(),
		FilterFeasible:       s.filterFeasible.Load(),
		FilterInfeasible:     s.filterInfeasible.Load(),
		CertFailures:         s.certFailures.Load(),
		ExactFallbacks:       s.exactFallbacks.Load(),
		SizeGated:            s.sizeGated.Load(),
		KernelFastSolves:     s.kernelFastSolves.Load(),
		KernelPromotedSolves: s.kernelPromotedSolves.Load(),
		KernelPromotions:     s.kernelPromotions.Load(),
		CertifyKernel:        s.certifyKernel.Load(),
		CertifyBigRat:        s.certifyBigRat.Load(),
	}
	c.ColdSolves = c.ExactFallbacks
	return c
}

// noteCertify records which arithmetic path a certificate check took.
func (s *Stats) noteCertify(cert *simplex.Certifier) {
	if s == nil {
		return
	}
	if cert.LastKernel() {
		s.certifyKernel.Add(1)
	} else {
		s.certifyBigRat.Add(1)
	}
}

// noteExactSolve records the kernel telemetry of an exact-tier solve.
func (s *Stats) noteExactSolve(ws *simplex.Workspace) {
	if s == nil {
		return
	}
	if promotions := ws.LastPromotions(); promotions == 0 {
		s.kernelFastSolves.Add(1)
	} else {
		s.kernelPromotedSolves.Add(1)
		s.kernelPromotions.Add(promotions)
	}
}

// Solver bundles the exact LP workspace with the optional float filter, a
// certificate-checking scratch and a telemetry sink. Like its workspaces
// it is not safe for concurrent use; pool one per worker. The zero value
// (or a nil *Solver) behaves as a fresh exact-only solver.
type Solver struct {
	// Exact is the rational simplex workspace — the authoritative tier.
	// nil allocates a fresh workspace on first use.
	Exact *simplex.Workspace
	// Filter is the float64 revised-simplex tier; nil forces exact mode.
	Filter *floatlp.Workspace
	// Cert holds the certificate checker's kernel scratch; nil allocates
	// one on first use.
	Cert *simplex.Certifier
	// Stats, when non-nil, receives per-evaluation telemetry.
	Stats *Stats
}

// NewSolver returns a hybrid solver with fresh workspaces reporting into
// stats (which may be nil).
func NewSolver(stats *Stats) *Solver {
	return &Solver{
		Exact:  simplex.NewWorkspace(),
		Filter: floatlp.NewWorkspace(),
		Cert:   simplex.NewCertifier(),
		Stats:  stats,
	}
}

// FilterMinSize gates the float tier by LP size (variables × rows). Below
// it the exact simplex beats the filter's convert + solve + certify round
// trip. The crossover first sat at ~512 against the freshly-landed int64
// kernel, but the kernel also made certificate checks cheap, and
// re-measuring moved it back down: on the Fig 9a groups the filter now
// wins ~1.5× at size 32 (Ret), ~2.4× at size 320 (L2TLB) and ~8.5× at
// size 2420 (Walk), and only ties at size 8 (the 2-counter pde model;
// BenchmarkTinyGate in this package re-measures the bottom end). Only
// trivially small LPs skip the filter; they go straight to the exact tier.
const FilterMinSize = 16

// ExactWorkspace returns the exact workspace, allocating one on first use.
// Callers may build their problem in its reusable storage (Prepare).
func (s *Solver) ExactWorkspace() *simplex.Workspace {
	if s.Exact == nil {
		s.Exact = simplex.NewWorkspace()
	}
	return s.Exact
}

// certifier returns the certificate scratch, allocating one on first use.
func (s *Solver) certifier() *simplex.Certifier {
	if s.Cert == nil {
		s.Cert = simplex.NewCertifier()
	}
	return s.Cert
}

// Feasible decides whether p is feasible. The float tier runs first (when
// present and p is not below FilterMinSize); its claim stands only if a
// certificate verifies exactly. What it leaves undecided goes to the exact
// simplex: always the exact answer.
func (s *Solver) Feasible(p *simplex.Problem) bool {
	return s.FeasibleStructured(p, floatlp.Structure{})
}

// FeasibleStructured is Feasible with a pricing hint for the float tier
// (see floatlp.Structure). An infeasible claim is certified from the
// tightened solve's basis first; only when that fails does the filter
// re-solve p untightened for a second claim.
func (s *Solver) FeasibleStructured(p *simplex.Problem, hint floatlp.Structure) bool {
	if s == nil {
		return simplex.NewWorkspace().SolveStatus(p) == simplex.Optimal
	}
	if s.Stats != nil {
		s.Stats.evaluations.Add(1)
	}
	gated := s.Filter != nil && p.NumVars*len(p.Constraints) < FilterMinSize
	if s.Filter != nil && !gated {
		out := s.Filter.FeasibilityStructured(p, hint)
		if out.Status == floatlp.Infeasible {
			if _, ok := s.certify(p, out); ok {
				return false
			}
			out = s.Filter.Untightened()
		}
		if feasible, ok := s.verifyClaim(p, out); ok {
			return feasible
		}
	}
	if s.Stats != nil {
		s.Stats.exactFallbacks.Add(1)
		if gated {
			s.Stats.sizeGated.Add(1)
		}
	}
	ws := s.ExactWorkspace()
	feasible := ws.SolveStatus(p) == simplex.Optimal
	s.Stats.noteExactSolve(ws)
	return feasible
}

// verifyClaim checks the float filter's claim exactly (see certify) and
// counts a claim whose certificate fails as a certification failure.
// ok=false means the filter was inconclusive or the certificate failed,
// and the exact tier must decide.
func (s *Solver) verifyClaim(p *simplex.Problem, out floatlp.Outcome) (feasible, ok bool) {
	feasible, ok = s.certify(p, out)
	if !ok && out.Status != floatlp.Inconclusive && s.Stats != nil {
		s.Stats.certFailures.Add(1)
	}
	return feasible, ok
}

// certify checks a claim's certificate: a feasible claim stands on its
// rounded point, an infeasible one on the exact dual of the filter's final
// phase-1 basis. Only certified claims reach the filter counters.
func (s *Solver) certify(p *simplex.Problem, out floatlp.Outcome) (feasible, ok bool) {
	cert := s.certifier()
	switch out.Status {
	case floatlp.Feasible:
		ok = cert.CertifyPoint(p, out.Point)
		s.Stats.noteCertify(cert)
		if ok && s.Stats != nil {
			s.Stats.filterFeasible.Add(1)
		}
		return true, ok
	case floatlp.Infeasible:
		ok = cert.CertifyFarkasBasis(p, out.Basis)
		s.Stats.noteCertify(cert)
		if ok && s.Stats != nil {
			s.Stats.filterInfeasible.Add(1)
		}
		return false, ok
	}
	return false, false
}
