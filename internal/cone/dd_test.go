package cone

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/exact"
	"repro/internal/tier"
)

// TestExtremeRaysMatchLPMinimality pins the double description's rank
// minimality pass against the membership-LP pass it replaced: on random
// spanning normal sets in ℝ¹…ℝ⁵, some with an entry past int64, the rays
// the rank test keeps are exactly those that no exact-tier LP puts in the
// conic hull of the other rays. The double description rarely leaves a
// redundant ray on inputs this small, so sums of two of its rays are
// planted among them.
func TestExtremeRaysMatchLPMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	exactOnly := &hullSolver{sv: &tier.Solver{}}
	huge := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 70))
	var cones, redundant, wide int
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
		var adj adjScratch
		rays, err := doubleDescription(ys, d, &adj)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for k := rng.Intn(3); k > 0 && len(rays) > 1; k-- {
			i, j := rng.Intn(len(rays)), rng.Intn(len(rays))
			if i != j {
				rays = append(rays, rayFromVec(rays[i].vec().Add(rays[j].vec()), nil))
			}
		}
		vs := make([]hullVec, len(rays))
		for i := range rays {
			vs[i] = newHullVec(rays[i].iv, rays[i].bv)
			if rays[i].iv == nil {
				wide++
			}
		}
		want := exactOnly.essential(vs)
		var got []int
		for i := range rays {
			if adj.extreme(&rays[i], ys, d) {
				got = append(got, i)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (d=%d, %d normals): rank test keeps rays %v, LP pass %v", trial, d, len(ys), got, want)
		}
		cones++
		redundant += len(rays) - len(got)
	}
	t.Logf("%d cones: %d redundant final rays dropped, %d wide rays", cones, redundant, wide)
	if cones < 100 || redundant == 0 || wide == 0 {
		t.Fatalf("coverage too thin: %d cones, %d redundant rays, %d wide rays", cones, redundant, wide)
	}
}
