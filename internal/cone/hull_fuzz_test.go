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
	for i := range v {
		row, rhs := p.GrowConstraint(simplex.EQ)
		for j, g := range gens {
			row[j].Set(g[i])
		}
		rhs.Set(v[i])
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
// certificates and exact fallback; big.Rat rows for wide entries) and
// through the exact-only loop on big.Rat rows. The essential sets must
// be equal, generator for generator, and every generator must lie in the
// pruned cone by both. The deduced H-representation must equal one
// deduced with every membership LP on the exact tier alone.
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
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		set, sigs := fuzzGenerators(data)
		if set == nil {
			return
		}
		c := New(set, sigs)
		got := c.EssentialGenerators()
		want := exactEssential(c.Generators)
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
		for _, g := range c.Generators {
			if in, ref := pruned.Contains(g), exactInHull(ws, g, pruned.Generators); in != ref || !in {
				t.Fatalf("generator %v: Contains says %v, exact loop %v, want true", g, in, ref)
			}
		}
		h, err := c.Constraints()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := c.buildConstraints(&hullSolver{sv: &tier.Solver{}})
		if err != nil {
			t.Fatal(err)
		}
		if hs, rs := fmt.Sprint(h.All()), fmt.Sprint(ref.All()); hs != rs {
			t.Fatalf("H-representation %s, exact tier alone %s", hs, rs)
		}
	})
}
