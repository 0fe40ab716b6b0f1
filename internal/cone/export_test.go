package cone

import "repro/internal/tier"

// DeduceCounting runs c's deduction afresh, bypassing the cache, with every
// membership LP reporting into stats.
func DeduceCounting(c *Cone, stats *tier.Stats) (*HRep, error) {
	return c.buildConstraints(&hullSolver{sv: tier.NewSolver(stats)})
}
