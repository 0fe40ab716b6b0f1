package cone

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exact"
	"repro/internal/tier"
)

// TestExtremeRaysMatchLPMinimality pins the double description's output
// against exact membership LPs: on random spanning normal sets in ℝ¹…ℝ⁵,
// some with an entry past int64, every ray lies in the dual cone and no
// exact-tier LP puts any ray in the conic hull of the others, so the rays
// are exactly the LP-essential set with no minimality pass.
func TestExtremeRaysMatchLPMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	exactOnly := &hullSolver{sv: &tier.Solver{}}
	huge := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 70))
	var cones, rays, wide int
	for trial := 0; trial < 400; trial++ {
		d := 1 + rng.Intn(5)
		rows := make([]exact.Vec, d+rng.Intn(7))
		ys := make([]ddY, len(rows))
		for i := range rows {
			rows[i] = exact.NewVec(d)
			for j := range rows[i] {
				rows[i][j].SetInt64(int64(rng.Intn(7) - 3))
			}
			if rng.Intn(12) == 0 {
				k := rng.Intn(d)
				rows[i][k].Mul(rows[i][k], huge)
			}
			ys[i] = newDDY(rows[i])
		}
		if len(exact.RowSpaceBasis(rows)) < d {
			continue
		}
		out, err := dualExtremeRays(ys, d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		vs := make([]hullVec, len(out))
		all := make([]int, len(out))
		for i := range out {
			for k := range ys {
				if ys[k].dotSign(&out[i]) > 0 {
					t.Fatalf("trial %d: ray %v leaves the dual cone at normal %d", trial, out[i].vec(), k)
				}
			}
			vs[i] = newHullVec(out[i].iv, out[i].bv)
			all[i] = i
			if out[i].iv == nil {
				wide++
			}
		}
		if ess := exactOnly.essential(vs); !slices.Equal(ess, all) {
			t.Fatalf("trial %d (d=%d, %d normals): %d rays, LP-essential %v", trial, d, len(ys), len(out), ess)
		}
		cones++
		rays += len(out)
	}
	t.Logf("%d cones: %d rays, none redundant, %d wide", cones, rays, wide)
	if cones < 100 || wide == 0 {
		t.Fatalf("coverage too thin: %d cones, %d wide rays", cones, wide)
	}
}
