package core

// The two-tier feasibility solver: a float64 revised-simplex filter
// (internal/floatlp) in front of the exact rational simplex
// (internal/simplex). The filter's claims are certificate-backed and
// verified over ℚ; anything unverifiable falls back to the exact solver,
// so the hybrid's verdicts are bit-exact by construction — the exact
// solver remains the oracle, it just stops being the common path.
//
// Both exact stages run on the int64 kernel (see internal/exact and
// simplex/kernel.go): certificates are checked with overflow-checked Rat64
// dot products, and exact solves run the integer-pivoting tableau,
// promoting to big arithmetic per element on overflow. The kernel
// fast-path and promotion counters below surface how often that happens.

import (
	"sync/atomic"

	"repro/internal/floatlp"
	"repro/internal/simplex"
)

// SolverStats counts two-tier solver activity. All counters are atomic:
// one SolverStats is shared by every worker of an engine. The zero value
// is ready to use.
type SolverStats struct {
	evaluations      atomic.Uint64
	filterFeasible   atomic.Uint64
	filterInfeasible atomic.Uint64
	basisInfeasible  atomic.Uint64
	certFailures     atomic.Uint64
	exactFallbacks   atomic.Uint64

	kernelFastSolves     atomic.Uint64
	kernelPromotedSolves atomic.Uint64
	kernelPromotions     atomic.Uint64
	certifyKernel        atomic.Uint64
	certifyBigRat        atomic.Uint64

	warmSolves     atomic.Uint64
	warmDualPivots atomic.Uint64
	coldSolves     atomic.Uint64
}

// SolverCounts is a point-in-time snapshot of SolverStats, shaped for JSON
// telemetry (counterpointd's /stats endpoint).
type SolverCounts struct {
	// Evaluations counts feasibility LPs decided (one per verdict).
	Evaluations uint64 `json:"evaluations"`
	// FilterFeasible / FilterInfeasible count verdicts decided by the
	// float tier with an exactly-verified certificate.
	FilterFeasible   uint64 `json:"filter_feasible"`
	FilterInfeasible uint64 `json:"filter_infeasible"`
	// FilterInfeasibleBasis counts the FilterInfeasible verdicts certified
	// by the exact dual of the filter's final phase-1 basis after the
	// rounded dual ray failed verification.
	FilterInfeasibleBasis uint64 `json:"filter_infeasible_basis"`
	// CertFailures counts float-tier claims for which every certificate
	// failed exact verification (each such evaluation also counts an exact
	// fallback).
	CertFailures uint64 `json:"certification_failures"`
	// ExactFallbacks counts verdicts decided by the exact tier — because
	// the filter was disabled, the LP was below the filter's size gate,
	// the filter was inconclusive, or certification failed.
	ExactFallbacks uint64 `json:"exact_fallbacks"`

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
	// (the JSON name keeps its historical "bigrat"). A refutation certified by
	// the phase-1 basis after its ray failed counts two checks.
	CertifyKernel uint64 `json:"certifications_int64"`
	CertifyBigRat uint64 `json:"certifications_bigrat"`

	// WarmSolves counts verdicts decided by the warm-start dual simplex
	// re-entering a cached basis; WarmDualPivots totals the dual pivots
	// those solves performed (mean pivots per warm start is the ratio).
	// ColdSolves counts verdicts decided by a from-scratch exact solve —
	// the exact-tier fallback or a warm-solver cold seed. The filter runs
	// first, so both count only LPs it left undecided.
	WarmSolves     uint64 `json:"warm_solves"`
	WarmDualPivots uint64 `json:"warm_dual_pivots"`
	ColdSolves     uint64 `json:"cold_solves"`
}

// MeanWarmPivots returns the mean dual pivots per warm-started solve.
func (c SolverCounts) MeanWarmPivots() float64 {
	if c.WarmSolves == 0 {
		return 0
	}
	return float64(c.WarmDualPivots) / float64(c.WarmSolves)
}

// FilterHits is the number of evaluations the float tier settled.
func (c SolverCounts) FilterHits() uint64 { return c.FilterFeasible + c.FilterInfeasible }

// Snapshot returns current counter values.
func (s *SolverStats) Snapshot() SolverCounts {
	return SolverCounts{
		Evaluations:           s.evaluations.Load(),
		FilterFeasible:        s.filterFeasible.Load(),
		FilterInfeasible:      s.filterInfeasible.Load(),
		FilterInfeasibleBasis: s.basisInfeasible.Load(),
		CertFailures:          s.certFailures.Load(),
		ExactFallbacks:        s.exactFallbacks.Load(),
		KernelFastSolves:      s.kernelFastSolves.Load(),
		KernelPromotedSolves:  s.kernelPromotedSolves.Load(),
		KernelPromotions:      s.kernelPromotions.Load(),
		CertifyKernel:         s.certifyKernel.Load(),
		CertifyBigRat:         s.certifyBigRat.Load(),
		WarmSolves:            s.warmSolves.Load(),
		WarmDualPivots:        s.warmDualPivots.Load(),
		ColdSolves:            s.coldSolves.Load(),
	}
}

// noteCertify records which arithmetic path a certificate check took.
func (s *SolverStats) noteCertify(cert *simplex.Certifier) {
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
func (s *SolverStats) noteExactSolve(ws *simplex.Workspace) {
	if s == nil {
		return
	}
	kernel, promotions := ws.LastSolveKernel()
	if !kernel {
		return
	}
	if promotions == 0 {
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
	// Warm, when non-nil, is tried after the float filter, on the LPs it
	// left undecided: it re-enters the cached optimal basis of the
	// previous structurally-overlapping undecided LP by dual simplex. The
	// engine threads one per (worker, model); a declined attempt (first
	// sighting, low overlap, unsupported shape) costs one
	// canonicalization scan and falls through to the exact tier.
	Warm *simplex.WarmSolver
	// Stats, when non-nil, receives per-evaluation telemetry.
	Stats *SolverStats
}

// NewSolver returns a hybrid solver with fresh workspaces reporting into
// stats (which may be nil).
func NewSolver(stats *SolverStats) *Solver {
	return &Solver{
		Exact:  simplex.NewWorkspace(),
		Filter: floatlp.NewWorkspace(),
		Cert:   simplex.NewCertifier(),
		Stats:  stats,
	}
}

// filterMinSize gates the float tier by LP size (variables × rows). Below
// it the exact simplex beats the filter's convert + solve + certify round
// trip. The crossover first sat at ~512 against the freshly-landed int64
// kernel, but the kernel also made certificate checks cheap, and
// re-measuring moved it back down: on the Fig 9a groups the filter now
// wins ~1.5× at size 32 (Ret), ~2.4× at size 320 (L2TLB) and ~8.5× at
// size 2420 (Walk), and only ties at size 8 (the 2-counter pde model;
// BenchmarkTinyGate in this package re-measures the bottom end). Only
// trivially small LPs skip the filter; they go to the warm tier first.
const filterMinSize = 16

// exactWS returns the exact workspace, allocating one on first use.
func (s *Solver) exactWS() *simplex.Workspace {
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
// present and p is not below filterMinSize); its claim stands only if a
// certificate verifies exactly. What it leaves undecided goes to the warm
// tier (when present), then the exact simplex: always the exact answer.
func (s *Solver) Feasible(p *simplex.Problem) bool {
	if s == nil {
		return simplex.NewWorkspace().SolveStatus(p) == simplex.Optimal
	}
	if s.Stats != nil {
		s.Stats.evaluations.Add(1)
	}
	if s.Filter != nil && p.NumVars*len(p.Constraints) >= filterMinSize {
		if feasible, ok := s.verifyClaim(p, s.Filter.Feasibility(p)); ok {
			return feasible
		}
	}
	if s.Warm != nil {
		if feasible, ok := s.Warm.Feasible(p); ok {
			if s.Stats != nil {
				warm, pivots := s.Warm.LastSolve()
				if warm {
					s.Stats.warmSolves.Add(1)
					s.Stats.warmDualPivots.Add(pivots)
				} else {
					s.Stats.coldSolves.Add(1)
				}
			}
			return feasible
		}
	}
	if s.Stats != nil {
		s.Stats.exactFallbacks.Add(1)
		s.Stats.coldSolves.Add(1)
	}
	ws := s.exactWS()
	feasible := ws.SolveStatus(p) == simplex.Optimal
	s.Stats.noteExactSolve(ws)
	return feasible
}

// verifyClaim checks the float filter's claim exactly. A feasible claim
// stands on its rounded point. An infeasible claim stands on its rounded
// dual ray or, failing that, on the exact dual of the filter's final
// phase-1 basis. ok=false means the filter was inconclusive or every
// certificate failed, and the exact tier must decide.
func (s *Solver) verifyClaim(p *simplex.Problem, out floatlp.Outcome) (feasible, ok bool) {
	cert := s.certifier()
	switch out.Status {
	case floatlp.Feasible:
		ok = cert.CertifyPoint(p, out.Point)
		s.Stats.noteCertify(cert)
		if ok && s.Stats != nil {
			s.Stats.filterFeasible.Add(1)
		}
		feasible = true
	case floatlp.Infeasible:
		ok = cert.CertifyFarkas(p, out.Ray)
		s.Stats.noteCertify(cert)
		if !ok {
			ok = cert.CertifyFarkasBasis(p, out.Basis)
			s.Stats.noteCertify(cert)
			if ok && s.Stats != nil {
				s.Stats.basisInfeasible.Add(1)
			}
		}
		if ok && s.Stats != nil {
			s.Stats.filterInfeasible.Add(1)
		}
	default:
		return false, false
	}
	if !ok && s.Stats != nil {
		s.Stats.certFailures.Add(1)
	}
	return feasible, ok
}
