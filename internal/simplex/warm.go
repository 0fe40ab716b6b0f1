package simplex

// WarmSolver is a placeholder for the retired warm-start dual simplex. The
// float filter now decides every LP it would have seen above the filter's
// size gate, and below the gate a cold exact solve is about as fast, so
// core.Solver runs cache → filter + certify → exact with no warm tier.
//
// Deprecated: Feasible declines every LP; decide LPs through core.Solver
// or Workspace.SolveStatus. The type remains only because the bench
// module (bench/trace.go) still names it.
type WarmSolver struct{}

// NewWarmSolver returns a WarmSolver that declines every LP.
//
// Deprecated: see WarmSolver.
func NewWarmSolver() *WarmSolver { return &WarmSolver{} }

// Feasible always reports ok=false: the caller decides p on its own path.
//
// Deprecated: see WarmSolver.
func (*WarmSolver) Feasible(*Problem) (feasible, ok bool) { return false, false }
