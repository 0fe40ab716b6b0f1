package cone

import (
	"math/rand"
	"testing"

	"repro/internal/counters"
	"repro/internal/exact"
)

// TestConicCombinationMembership: any random non-negative combination of
// generators is in the cone, and satisfies every deduced constraint.
func TestConicCombinationMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(3) + 2
		evs := make([]counters.Event, n)
		for i := range evs {
			evs[i] = counters.Event(string(rune('a' + i)))
		}
		set := counters.NewSet(evs...)
		ng := rng.Intn(3) + 2
		gens := make([]exact.Vec, ng)
		for i := range gens {
			gens[i] = exact.NewVec(n)
			for j := 0; j < n; j++ {
				gens[i][j].SetInt64(int64(rng.Intn(4)))
			}
		}
		c := New(set, gens)
		h, err := c.Constraints()
		if err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 10; probe++ {
			v := exact.NewVec(n)
			for _, g := range c.Generators() {
				coeff := int64(rng.Intn(4))
				for j := range v {
					tmp := g[j].Num().Int64() * coeff
					cur := v[j].Num().Int64()
					v[j].SetInt64(cur + tmp)
				}
			}
			if !c.Contains(v) {
				t.Fatalf("trial %d: conic combination %v not contained", trial, v)
			}
			for _, k := range h.All() {
				if !k.SatisfiedBy(v) {
					t.Fatalf("trial %d: combination violates deduced %s", trial, k)
				}
			}
		}
	}
}

// TestZeroPaddingPreservesMembership: extending the counter set with events
// no signature touches pins the new coordinates to zero but preserves
// membership of zero-padded points.
func TestZeroPaddingPreservesMembership(t *testing.T) {
	small := counters.NewSet("a", "b")
	big := counters.NewSet("a", "b", "c")
	gensSmall := []exact.Vec{exact.VecFromInts(1, 0), exact.VecFromInts(1, 1)}
	gensBig := []exact.Vec{exact.VecFromInts(1, 0, 0), exact.VecFromInts(1, 1, 0)}
	cs := New(small, gensSmall)
	cb := New(big, gensBig)
	pts := []exact.Vec{
		exact.VecFromInts(3, 2),
		exact.VecFromInts(2, 3),
		exact.VecFromInts(5, 5),
	}
	for _, p := range pts {
		padded := exact.VecFromInts(p[0].Num().Int64(), p[1].Num().Int64(), 0)
		if cs.Contains(p) != cb.Contains(padded) {
			t.Fatalf("padding changed membership for %v", p)
		}
	}
	// A non-zero padded coordinate is never reachable.
	if cb.Contains(exact.VecFromInts(3, 2, 1)) {
		t.Fatal("untouched counter must stay zero")
	}
}

// TestEssentialGeneratorsPreserveCone: pruning interior generators must not
// change cone membership.
func TestEssentialGeneratorsPreserveCone(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		n := rng.Intn(3) + 2
		evs := make([]counters.Event, n)
		for i := range evs {
			evs[i] = counters.Event(string(rune('a' + i)))
		}
		set := counters.NewSet(evs...)
		ng := rng.Intn(4) + 3
		gens := make([]exact.Vec, ng)
		for i := range gens {
			gens[i] = exact.NewVec(n)
			for j := 0; j < n; j++ {
				gens[i][j].SetInt64(int64(rng.Intn(3)))
			}
		}
		full := New(set, gens)
		pruned := New(set, essentialGens(full))
		for probe := 0; probe < 10; probe++ {
			v := exact.NewVec(n)
			for j := 0; j < n; j++ {
				v[j].SetInt64(int64(rng.Intn(6)))
			}
			if full.Contains(v) != pruned.Contains(v) {
				t.Fatalf("trial %d: pruning changed membership of %v", trial, v)
			}
		}
	}
}
