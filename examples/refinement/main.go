// Refinement: the paper's Figure 6 walkthrough against simulated silicon.
//
// The initial μDD assumes the walk starts before the PDE cache is looked
// up. Real (simulated) Haswell looks the PDE cache up first and can merge
// or abort requests afterwards, so measurements violate the implied
// constraint C: pde$_miss <= causes_walk. CounterPoint reports C, we refine
// the μDD with early PSC lookup + abortable requests, and the refined model
// accepts the same data — while its cone provably contains a μpath whose
// counter signature violates C (Figure 6d).
//
// Run with: go run ./examples/refinement
package main

import (
	"fmt"
	"log"

	"repro/internal/cone"
	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/exact"
	"repro/internal/haswell"
	"repro/internal/pagetable"
	"repro/internal/stats"
	"repro/internal/workloads"
)

const initialSrc = `
incr load.causes_walk;
do   LookupPde$;
switch Pde$Status { Hit => pass; Miss => incr load.pde$_miss; };
done;
`

const refinedSrc = `
do LookupPde$;
switch Pde$Status {
    Hit  => pass;
    Miss => {
        incr load.pde$_miss;
        switch Abort { Yes => done; No => pass; };
    };
};
do   StartWalk;
incr load.causes_walk;
done;
`

func main() {
	// Measure the simulated Haswell with a bursty object-access workload —
	// the regime in which MSHR merging makes merged requests miss the PDE
	// cache without starting walks of their own.
	sim := haswell.NewSimulator(haswell.DefaultConfig(pagetable.Page4K))
	gen, err := workloads.NewRandomBurst(512<<20, 16, 1.0, 7)
	if err != nil {
		log.Fatal(err)
	}
	sim.Step(gen, 20000) // warm up
	obs := sim.Observation(gen, 20, 10000)

	set := counters.NewSet("load.causes_walk", "load.pde$_miss")
	initial, err := core.ModelFromDSL("initial", initialSrc, set)
	if err != nil {
		log.Fatal(err)
	}
	v, err := initial.TestObservation(obs, core.DefaultConfidence, stats.Correlated, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial model vs %s:\n  feasible: %v\n", obs.Label, v.Feasible)
	for _, k := range v.Violations {
		fmt.Printf("  violated: %s\n", k)
	}

	refined, err := core.ModelFromDSL("refined", refinedSrc, set)
	if err != nil {
		log.Fatal(err)
	}
	v2, err := refined.TestObservation(obs, core.DefaultConfidence, stats.Correlated, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrefined model (early PSC lookup + abortable requests):\n  feasible: %v\n", v2.Feasible)

	// Figure 6d: the refinement works because a new μpath's signature
	// explicitly violates C.
	c := cone.Constraint{Set: set, Coeffs: exact.VecFromInts(-1, 1), Rel: cone.LEZero}
	fmt.Printf("  refined cone still implies C: %v\n", refined.Cone().Implies(c))
	for _, g := range refined.Cone().Generators() {
		if !c.SatisfiedBy(g) {
			fmt.Printf("  witness μpath signature (causes_walk, pde$_miss) = %v\n", g)
		}
	}
	// And refinement expanded the cone, as §5 requires.
	fmt.Printf("  initial cone ⊆ refined cone: %v\n", initial.Cone().SubsetOf(refined.Cone()))
}
