package cone

import "repro/internal/tier"

// DeduceCounting runs c's deduction afresh, essential pass included,
// bypassing both caches, with every membership LP reporting into stats.
func DeduceCounting(c *Cone, stats *tier.Stats) (*HRep, error) {
	hs := &hullSolver{sv: tier.NewSolver(stats)}
	return c.buildConstraints(hs, hs.essential(c.hullGens()))
}
