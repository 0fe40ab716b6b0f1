package cone

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/exact"
)

func set2() *counters.Set {
	return counters.NewSet("load.causes_walk", "load.pde$_miss")
}

func set3() *counters.Set {
	return counters.NewSet("load.causes_walk", "load.walk_done", "load.ret_stlb_miss")
}

func TestNewNormalizesAndDedupes(t *testing.T) {
	s := set2()
	c := New(s, []exact.Vec{
		exact.VecFromInts(2, 4),
		exact.VecFromInts(1, 2),
		exact.VecFromInts(0, 0),
		exact.VecFromInts(1, 0),
	})
	if len(c.Generators()) != 2 {
		t.Fatalf("got %d generators, want 2", len(c.Generators()))
	}
}

func TestContains(t *testing.T) {
	// Figure 6a cone: paths give signatures (1,0) and (1,1):
	// causes_walk always increments, pde$_miss only on miss.
	c := New(set2(), []exact.Vec{exact.VecFromInts(1, 0), exact.VecFromInts(1, 1)})
	cases := []struct {
		v    exact.Vec
		want bool
	}{
		{exact.VecFromInts(5, 3), true},   // 2*(1,0) + 3*(1,1)
		{exact.VecFromInts(5, 5), true},   // boundary
		{exact.VecFromInts(5, 0), true},   // boundary
		{exact.VecFromInts(3, 5), false},  // pde$_miss > causes_walk violates C
		{exact.VecFromInts(0, 0), true},   // apex
		{exact.VecFromInts(-1, 0), false}, // negative counters impossible
	}
	for i, tc := range cases {
		if got := c.Contains(tc.v); got != tc.want {
			t.Errorf("case %d: Contains(%v) = %v, want %v", i, tc.v, got, tc.want)
		}
	}
}

func TestConstraintsPDECacheExample(t *testing.T) {
	// The §5 model: constraints should include pde$_miss <= causes_walk,
	// pde$_miss >= 0 (i.e. -pde$_miss <= 0 is implied by cone geometry).
	c := New(set2(), []exact.Vec{exact.VecFromInts(1, 0), exact.VecFromInts(1, 1)})
	h, err := c.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Equalities) != 0 {
		t.Fatalf("unexpected equalities: %v", h.Equalities)
	}
	if len(h.Inequalities) != 2 {
		t.Fatalf("got %d inequalities, want 2: %v", len(h.Inequalities), h.Inequalities)
	}
	var found bool
	for _, k := range h.Inequalities {
		if k.String() == "load.pde$_miss <= load.causes_walk" {
			found = true
		}
	}
	if !found {
		var ss []string
		for _, k := range h.Inequalities {
			ss = append(ss, k.String())
		}
		t.Fatalf("constraint C not deduced; got: %s", strings.Join(ss, "; "))
	}
}

func TestConstraintsFigure3a(t *testing.T) {
	// Figure 3a: counters (causes_walk, walk_done, ret_stlb_miss).
	// μpaths: walk completes and retires (1,1,1); walk completes but μop
	// squashed (1,1,0); walk initiated but does not complete (1,0,0).
	c := New(set3(), []exact.Vec{
		exact.VecFromInts(1, 1, 1),
		exact.VecFromInts(1, 1, 0),
		exact.VecFromInts(1, 0, 0),
	})
	h, err := c.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"load.ret_stlb_miss <= load.walk_done": false,
		"load.walk_done <= load.causes_walk":   false,
		"0 <= load.ret_stlb_miss":              false,
	}
	for _, k := range h.Inequalities {
		if _, ok := want[k.String()]; ok {
			want[k.String()] = true
		}
	}
	for s, ok := range want {
		if !ok {
			var got []string
			for _, k := range h.Inequalities {
				got = append(got, k.String())
			}
			t.Fatalf("missing constraint %q; got %s", s, strings.Join(got, "; "))
		}
	}
}

func TestEqualityDeduction(t *testing.T) {
	// stlb_hit = stlb_hit_4k + stlb_hit_2m (paper §6 footnote): signatures
	// always increment the aggregate together with exactly one variant.
	s := counters.NewSet("load.stlb_hit_4k", "load.stlb_hit_2m", "load.stlb_hit")
	c := New(s, []exact.Vec{
		exact.VecFromInts(1, 0, 1),
		exact.VecFromInts(0, 1, 1),
	})
	h, err := c.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Equalities) != 1 {
		t.Fatalf("got %d equalities, want 1: %v", len(h.Equalities), h.Equalities)
	}
	eq := h.Equalities[0]
	// The equality must annihilate both generators.
	for _, g := range c.Generators() {
		if eq.Coeffs.Dot(g).Sign() != 0 {
			t.Fatalf("equality %s does not annihilate %v", eq, g)
		}
	}
}

func TestEssentialGenerators(t *testing.T) {
	// (1,1) is interior to cone{(1,0),(0,1)} ∪ {(1,1)} and must be pruned.
	s := set2()
	c := New(s, []exact.Vec{
		exact.VecFromInts(1, 0),
		exact.VecFromInts(0, 1),
		exact.VecFromInts(1, 1),
	})
	ess := c.EssentialIndices()
	if len(ess) != 2 {
		t.Fatalf("got %d essential generators, want 2", len(ess))
	}
}

func TestImplies(t *testing.T) {
	c := New(set2(), []exact.Vec{exact.VecFromInts(1, 0), exact.VecFromInts(1, 1)})
	// pde$_miss - causes_walk <= 0 is implied.
	k := Constraint{Set: c.Set, Coeffs: exact.VecFromInts(-1, 1), Rel: LEZero}
	if !c.Implies(k) {
		t.Fatal("constraint C should be implied")
	}
	// Refined model (Figure 6c) adds signature (0,1): aborted request that
	// misses the PDE cache but never starts a walk. C no longer implied.
	refined := New(set2(), []exact.Vec{
		exact.VecFromInts(1, 0), exact.VecFromInts(1, 1), exact.VecFromInts(0, 1),
	})
	if refined.Implies(k) {
		t.Fatal("refined model must not imply constraint C")
	}
}

func TestSubsetOf(t *testing.T) {
	small := New(set2(), []exact.Vec{exact.VecFromInts(1, 0), exact.VecFromInts(1, 1)})
	big := New(set2(), []exact.Vec{
		exact.VecFromInts(1, 0), exact.VecFromInts(1, 1), exact.VecFromInts(0, 1),
	})
	if !small.SubsetOf(big) {
		t.Fatal("small should be subset of big")
	}
	if big.SubsetOf(small) {
		t.Fatal("big should not be subset of small")
	}
}

func TestConstraintString(t *testing.T) {
	s := set2()
	k := Constraint{Set: s, Coeffs: exact.VecFromInts(-3, 1), Rel: LEZero}
	if got := k.String(); got != "load.pde$_miss <= 3*load.causes_walk" {
		t.Fatalf("got %q", got)
	}
	k2 := Constraint{Set: s, Coeffs: exact.VecFromInts(0, 0), Rel: EQZero}
	if got := k2.String(); got != "0 = 0" {
		t.Fatalf("got %q", got)
	}
}

func TestConstraintEvalAndSatisfied(t *testing.T) {
	k := Constraint{Set: set2(), Coeffs: exact.VecFromInts(-1, 1), Rel: LEZero}
	if k.SatisfiedBy(exact.VecFromInts(2, 5)) {
		t.Fatal("(2,5) violates C")
	}
	if !k.SatisfiedBy(exact.VecFromInts(5, 2)) {
		t.Fatal("(5,2) satisfies C")
	}
}

func TestEmptyCone(t *testing.T) {
	c := New(set2(), nil)
	h, err := c.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Equalities) != 2 {
		t.Fatalf("trivial cone: got %d equalities, want 2", len(h.Equalities))
	}
	if !c.Contains(exact.VecFromInts(0, 0)) {
		t.Fatal("trivial cone must contain origin")
	}
	if c.Contains(exact.VecFromInts(1, 0)) {
		t.Fatal("trivial cone contains only origin")
	}
}

// TestHRepVRepRoundTrip is the Minkowski–Weyl property check: a random
// non-negative integral point is in the cone (by LP on generators) iff it
// satisfies every deduced constraint.
func TestHRepVRepRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(3) + 2
		evs := make([]counters.Event, n)
		for i := range evs {
			evs[i] = counters.Event(string(rune('a' + i)))
		}
		s := counters.NewSet(evs...)
		ng := rng.Intn(4) + 1
		gens := make([]exact.Vec, ng)
		for i := range gens {
			gens[i] = exact.NewVec(n)
			for j := 0; j < n; j++ {
				gens[i][j].SetInt64(int64(rng.Intn(3)))
			}
		}
		c := New(s, gens)
		h, err := c.Constraints()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for probe := 0; probe < 20; probe++ {
			v := exact.NewVec(n)
			for j := 0; j < n; j++ {
				v[j].SetInt64(int64(rng.Intn(5)))
			}
			inCone := c.Contains(v)
			satisfiesAll := true
			for _, k := range h.All() {
				if !k.SatisfiedBy(v) {
					satisfiesAll = false
					break
				}
			}
			// Membership must imply satisfying all constraints. The converse
			// requires v >= 0 within the span, which holds here because the
			// H-rep includes all facets.
			if inCone != satisfiesAll {
				t.Fatalf("trial %d probe %d: inCone=%v satisfiesAll=%v v=%v gens=%v",
					trial, probe, inCone, satisfiesAll, v, c.Generators())
			}
		}
	}
}

// TestConstraintsConcurrentFirstCall is the race regression for the lazy
// H-representation cache: the service layer deduces constraints from
// concurrent request handlers, so racing first callers must share one
// deduction (previously an unsynchronised write to the cache).
func TestConstraintsConcurrentFirstCall(t *testing.T) {
	c := New(set3(), []exact.Vec{
		exact.VecFromInts(1, 0, 0),
		exact.VecFromInts(1, 1, 0),
		exact.VecFromInts(1, 1, 1),
	})
	const callers = 8
	results := make(chan *HRep, callers)
	for i := 0; i < callers; i++ {
		go func() {
			h, err := c.Constraints()
			if err != nil {
				t.Error(err)
			}
			results <- h
		}()
	}
	first := <-results
	for i := 1; i < callers; i++ {
		if got := <-results; got != first {
			t.Fatal("concurrent first callers built distinct H-representations")
		}
	}
}

// TestGeneratorsConcurrentFirstCall is the race regression for the lazy
// exact generators: a cone built from counts converts them on the first
// Generators call, and racing first callers (alongside a deduction) must
// share one conversion.
func TestGeneratorsConcurrentFirstCall(t *testing.T) {
	c := NewCounts(set3(), []exact.Vec64{
		{Num: []int64{2, 0, 0}, Den: 1},
		{Num: []int64{1, 1, 0}, Den: 1},
		{Num: []int64{1, 1, 1}, Den: 1},
	})
	const callers = 8
	results := make(chan []exact.Vec, callers)
	for i := 0; i < callers; i++ {
		go func() {
			if _, err := c.Constraints(); err != nil {
				t.Error(err)
			}
			results <- c.Generators()
		}()
	}
	first := <-results
	if len(first) != 3 || first[0].Key() != "1|0|0" {
		t.Fatalf("generators %v, want (1,0,0) first", first)
	}
	for i := 1; i < callers; i++ {
		if got := <-results; &got[0] != &first[0] {
			t.Fatal("concurrent first callers built distinct generator slices")
		}
	}
}
