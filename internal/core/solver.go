package core

import "repro/internal/tier"

// The two-tier feasibility solver lives in package tier, which the cone's
// deduction LPs share; core keeps its names for the solver's callers.
type (
	// Solver is tier.Solver.
	Solver = tier.Solver
	// SolverStats is tier.Stats.
	SolverStats = tier.Stats
	// SolverCounts is tier.Counts.
	SolverCounts = tier.Counts
)
