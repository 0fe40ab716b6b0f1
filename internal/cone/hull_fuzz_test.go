package cone

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/counters"
	"repro/internal/exact"
	"repro/internal/simplex"
	"repro/internal/tier"
)

// exactInHull is the membership LP on big.Rat rows, decided by the exact
// simplex alone: the reference for hullSolver.inHull.
func exactInHull(ws *simplex.Workspace, v exact.Vec, gens []exact.Vec) bool {
	if len(gens) == 0 {
		return v.IsZero()
	}
	p := ws.Prepare(len(gens))
	row := make(exact.Vec, len(gens))
	for i := range v {
		for j, g := range gens {
			row[j] = g[i]
		}
		p.AddConstraint(row, simplex.EQ, v[i])
	}
	return ws.SolveStatus(p) == simplex.Optimal
}

// exactEssential is the progressive redundancy loop on exactInHull.
func exactEssential(gens []exact.Vec) []exact.Vec {
	ws := simplex.NewWorkspace()
	var out []exact.Vec
	for i, g := range gens {
		others := append(append([]exact.Vec{}, out...), gens[i+1:]...)
		if !exactInHull(ws, g, others) {
			out = append(out, g)
		}
	}
	return out
}

// fuzzGenerators decodes a generator set: the first byte picks the
// dimension (1–5), then each further dim bytes are one signature. An
// entry byte b reads v = (b & 31) − 16; its top three bits 6 make the
// entry v·2^53 + 1 and 7 make it v·2^70 + 3, entries a float64 row
// cannot hold exactly (the second not even int64), which send their LPs
// to big.Rat rows. At most 12 signatures are read.
func fuzzGenerators(data []byte) (*counters.Set, []exact.Vec) {
	if len(data) == 0 {
		return nil, nil
	}
	dim := 1 + int(data[0])%5
	data = data[1:]
	events := make([]counters.Event, dim)
	for i := range events {
		events[i] = counters.Event(fmt.Sprintf("e%d", i))
	}
	var sigs []exact.Vec
	for len(data) >= dim && len(sigs) < 12 {
		s := exact.NewVec(dim)
		for i, b := range data[:dim] {
			v := big.NewInt(int64(b&31) - 16)
			switch b >> 5 {
			case 6:
				v.Lsh(v, 53).Add(v, big.NewInt(1))
			case 7:
				v.Lsh(v, 70).Add(v, big.NewInt(3))
			}
			s[i].SetInt(v)
		}
		sigs = append(sigs, s)
		data = data[dim:]
	}
	return counters.NewSet(events...), sigs
}

// FuzzConeRedundancy decodes a small generator set and prunes it twice:
// through the hull solver (integer-native rows on the float filter,
// certificates and exact fallback; support-pruned LPs when every vector
// is non-negative; big.Rat rows for wide entries) and through the
// exact-only loop on big.Rat rows. The essential sets must be equal,
// generator for generator, and every generator must lie in the pruned
// cone by both. Contains must agree with the exact-only LP on probes in
// and out of the cone, and a generator takes the support-pruned path
// exactly when its entries are integers in [0, 2^53]. The deduced
// H-representation must equal one deduced with every membership LP on
// the exact tier alone, and (the int64-against-big.Rat differential)
// the cone with one coordinate scaled by 2^70, which overflows int64 and
// so deduces on big.Rat, must yield the same constraints and essential
// generators with that coordinate scaled back.
func FuzzConeRedundancy(f *testing.F) {
	const (
		p = 16 // entry byte for 0
		w = 6 << 5
		x = 7 << 5
	)
	for _, seed := range [][]byte{
		// One generator: its redundancy LP has no columns.
		{0, p + 3},
		// Pointed, 3 counters: redundant sums of the unit vectors.
		{2, p + 1, p, p, p, p + 1, p, p, p, p + 1, p + 1, p + 1, p, p + 2, p + 1, p + 1},
		// Not pointed: g and −g span a line, plus a redundant mix.
		{1, p + 1, p + 2, p - 1, p - 2, p + 3, p + 1, p, p + 1, p - 3, p - 1},
		// The whole plane: four directions, every one redundant in turn.
		{1, p + 1, p, p - 1, p, p, p + 1, p, p - 1, p + 1, p + 1},
		// Entries past 2^53 and past int64 next to small ones.
		{2, w | (p + 1), p, p + 1, p + 1, p, p, x | (p + 1), p + 2, p + 1, p + 1, p + 1, p + 1},
		{4, p + 1, p - 1, w | (p + 1), p, p + 2, p + 1, p, p, x | (p - 1), p + 1, p - 1, p + 1, p, p + 1, p, p + 2, p + 2, p + 2, p + 1, p + 1},
		// Five counters, wide and negative entries mixed.
		{4, p + 3, p - 2, p, p + 1, p + 1, p + 1, p + 1, p + 1, p + 1, p + 1, x | (p + 2), p, p + 1, p - 1, w | (p - 2), p + 4, p + 2, p + 2, p + 2, p + 2},
		// Non-negative: a chain of nested supports, each sum redundant.
		{2, p + 1, p, p, p + 1, p + 1, p, p + 1, p + 1, p + 1, p + 2, p + 1, p, p + 2, p + 2, p + 1},
		// Non-negative, equal supports: (1,1,0) is (1,2,0)+(2,1,0) over 3.
		{2, p + 1, p + 2, p, p + 2, p + 1, p, p + 1, p + 1, p, p, p, p + 1},
		// Non-negative, a single candidate: only (1,0,0) has its support
		// inside (1,2,0)'s, and (2,0,0) is its multiple.
		{2, p + 1, p + 2, p, p, p, p + 1, p + 1, p, p, p + 2, p, p},
		// Non-negative with an entry of 2^53+1, past the float rows: its
		// LPs decline the pruned path.
		{2, w | (p + 1), p + 1, p, p + 1, p, p, p, p + 1, p, p, p, p + 1, p + 1, p + 1, p + 1},
		// Not full-dimensional: every generator has e2 = e0 + e1, so the
		// deduction has an equality.
		{2, p + 1, p, p + 1, p, p + 1, p + 1, p + 1, p + 1, p + 2, p + 2, p - 1, p + 1},
		// One generator (2^53+1, 1): its echelon fits int64 but the Gram
		// matrix of the facet lift does not.
		{1, w | (p + 1), p + 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		set, sigs := fuzzGenerators(data)
		if set == nil {
			return
		}
		c := New(set, sigs)
		got := essentialGens(c)
		want := exactEssential(c.Generators())
		if len(got) != len(want) {
			t.Fatalf("hull solver keeps %d generators %v, exact loop %d %v", len(got), got, len(want), want)
		}
		for i := range got {
			if got[i].Key() != want[i].Key() {
				t.Fatalf("essential generator %d: hull solver %v, exact loop %v", i, got[i], want[i])
			}
		}
		pruned := New(set, got)
		ws := simplex.NewWorkspace()
		for _, g := range c.Generators() {
			if in, ref := pruned.Contains(g), exactInHull(ws, g, pruned.Generators()); in != ref || !in {
				t.Fatalf("generator %v: Contains says %v, exact loop %v, want true", g, in, ref)
			}
		}
		gens := c.Generators()
		for _, g := range gens {
			pruned := vecOf(g).supp != nil
			inRange := true
			for _, x := range g {
				inRange = inRange && x.IsInt() && x.Sign() >= 0 && x.Num().Cmp(big.NewInt(maxFloatInt)) <= 0
			}
			if pruned != inRange {
				t.Fatalf("generator %v: support-pruned path %v, want %v", g, pruned, inRange)
			}
		}
		for _, v := range probes(gens, set.Len()) {
			if in, ref := c.Contains(v), exactInHull(ws, v, gens); in != ref {
				t.Fatalf("probe %v: Contains says %v, exact loop %v", v, in, ref)
			}
		}
		h, err := c.Constraints()
		if err != nil {
			t.Fatal(err)
		}
		exactOnly := &hullSolver{sv: &tier.Solver{}}
		ref, err := c.buildConstraints(exactOnly.essential(c.hullGens()))
		if err != nil {
			t.Fatal(err)
		}
		if hs, rs := fmt.Sprint(h.All()), fmt.Sprint(ref.All()); hs != rs {
			t.Fatalf("H-representation %s, exact tier alone %s", hs, rs)
		}
		scaledDifferential(t, c, got, h, int(data[0]/5)%set.Len())
	})
}

// probes returns vectors to test for membership: each generator plus
// each unit vector (in or out of the cone) and each sum of two
// generators (in it).
func probes(gens []exact.Vec, dim int) []exact.Vec {
	var out []exact.Vec
	for i, g := range gens {
		for k := 0; k < dim; k++ {
			v := g.Clone()
			v[k].Add(v[k], big.NewRat(1, 1))
			out = append(out, v)
		}
		for _, h := range gens[i+1:] {
			v := g.Clone()
			v.AddScaled(big.NewRat(1, 1), h)
			out = append(out, v)
		}
	}
	return out
}

// scaledDifferential deduces the cone D·c, where D scales coordinate k by
// 2^70, and checks it against c's deduction h and essential generators
// ess mapped through D. Whenever some generator uses coordinate k, D·c
// has entries beyond int64 and deduces on big.Rat, while a narrow c ran
// on int64. The equalities of D·c are D⁻¹e for c's e, normalised, and its
// essential generators D·g for c's g. Its facets a' satisfy
// a'·(D·x) = (D·a')·x, so each must take the values of one of c's facets
// a on c's generators, up to a positive factor (a facet is unique only
// modulo the equalities, so the values are what is compared).
func scaledDifferential(t *testing.T, c *Cone, ess []exact.Vec, h *HRep, k int) {
	t.Helper()
	s := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 70))
	scale := func(v exact.Vec, up bool) exact.Vec {
		w := v.Clone()
		if up {
			w[k].Mul(w[k], s)
		} else {
			w[k].Quo(w[k], s)
		}
		return w
	}
	gens := c.Generators()
	scaled := make([]exact.Vec, len(gens))
	for i, g := range gens {
		scaled[i] = scale(g, true)
	}
	dc := New(c.Set, scaled)
	hd, err := dc.Constraints()
	if err != nil {
		t.Fatal(err)
	}
	if len(hd.Equalities) != len(h.Equalities) || len(hd.Inequalities) != len(h.Inequalities) {
		t.Fatalf("scaled cone: %d equalities and %d inequalities, want %d and %d",
			len(hd.Equalities), len(hd.Inequalities), len(h.Equalities), len(h.Inequalities))
	}
	for _, e := range h.Equalities {
		if want := scale(e.Coeffs, false).NormalizeIntegral(); !hasCoeffs(hd.Equalities, want.Key()) {
			t.Fatalf("scaled cone: no equality %v, D⁻¹ of %v, among %v", want, e.Coeffs, hd.Equalities)
		}
	}
	values := func(a exact.Vec, on []exact.Vec) string {
		v := make(exact.Vec, len(on))
		for i, g := range on {
			v[i] = a.Dot(g)
		}
		return v.NormalizeIntegral().Key()
	}
	want := map[string]bool{}
	for _, a := range h.Inequalities {
		want[values(a.Coeffs, gens)] = true
	}
	for _, a := range hd.Inequalities {
		if !want[values(a.Coeffs, scaled)] {
			t.Fatalf("scaled cone: facet %v matches none of %v", a.Coeffs, h.Inequalities)
		}
	}
	gotEss := essentialGens(dc)
	if len(gotEss) != len(ess) {
		t.Fatalf("scaled cone keeps %d essential generators, want %d", len(gotEss), len(ess))
	}
	for i, g := range gotEss {
		if want := scale(ess[i], true).NormalizeIntegral(); g.Key() != want.Key() {
			t.Fatalf("scaled essential generator %d: %v, want %v", i, g, want)
		}
	}
}

// hasCoeffs reports whether some constraint of cs has coefficient key k.
func hasCoeffs(cs []Constraint, k string) bool {
	for _, c := range cs {
		if c.Coeffs.Key() == k {
			return true
		}
	}
	return false
}
