package core

import (
	"math/rand"
	"testing"

	"repro/internal/counters"
	"repro/internal/floatlp"
	"repro/internal/simplex"
	"repro/internal/stats"
	"repro/internal/tier"
)

// BenchmarkTinyGate measures both feasibility tiers on the smallest LP in
// the test fleet (the 2-counter pde model, size 2×4 = 8) — the bottom end
// of the tier.FilterMinSize crossover. Fig9aFeasibility covers sizes
// 32/320/2420; together they are the data the constant is tuned against
// (see its comment).
func BenchmarkTinyGate(b *testing.B) {
	src := "incr load.causes_walk;\nswitch Pde$Status { Hit => pass; Miss => incr load.pde$_miss; };\ndone;"
	set := counters.NewSet("load.causes_walk", "load.pde$_miss")
	m, err := ModelFromDSL("pde", src, set)
	if err != nil {
		b.Fatal(err)
	}
	o := counters.NewObservation("x", set)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		o.Append([]float64{500 + rng.NormFloat64(), 100 + rng.NormFloat64()})
	}
	r, err := stats.NewRegion(o, DefaultConfidence, stats.Correlated)
	if err != nil {
		b.Fatal(err)
	}
	p := simplex.NewProblem(0)
	if err := m.RegionLP(p, r); err != nil {
		b.Fatal(err)
	}
	b.Logf("size = %d vars x %d rows = %d (tier.FilterMinSize %d)",
		p.NumVars, len(p.Constraints), p.NumVars*len(p.Constraints), tier.FilterMinSize)
	b.Run("exact", func(b *testing.B) {
		ws := simplex.NewWorkspace()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ws.SolveStatus(p) == simplex.Optimal
		}
	})
	b.Run("filter", func(b *testing.B) {
		fl := floatlp.NewWorkspace()
		cert := simplex.NewCertifier()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := fl.Feasibility(p)
			if out.Status != floatlp.Feasible || !cert.CertifyPoint(p, out.Point) {
				b.Fatal("filter verdict changed under benchmarking")
			}
		}
	})
}
