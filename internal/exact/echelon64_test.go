package exact

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// randIntRows returns a rows×cols integer matrix with entries drawn from
// [-spread, spread], a third of them zero; with wide set, one entry in
// four is instead a random multiple of 2^40, so eliminations overflow.
func randIntRows(rng *rand.Rand, rows, cols int, spread int64, wide bool) [][]int64 {
	m := make([][]int64, rows)
	for i := range m {
		m[i] = make([]int64, cols)
		for j := range m[i] {
			switch {
			case rng.Intn(3) == 0:
			case wide && rng.Intn(4) == 0:
				m[i][j] = (rng.Int63n(1<<20) - 1<<19) << 40
			default:
				m[i][j] = rng.Int63n(2*spread+1) - spread
			}
		}
	}
	return m
}

func vecsOf(rows [][]int64) []Vec {
	out := make([]Vec, len(rows))
	for i, r := range rows {
		out[i] = Vec64{Num: r, Den: 1}.Vec()
	}
	return out
}

// TestEchelon64MatchesBig is the int64-against-big.Rat differential for
// the fraction-free kernel: on random integer matrices, small and with
// entries that overflow int64 mid-elimination, NullSpace64 must return
// NullSpaceBasis's vectors, RankScratch.Rank64 (one scratch reused across
// every trial) RowSpaceBasis's size, every echelon row a multiple of the
// rational echelon row, and SolveSquareMany64 the exact solution for
// each of up to three right-hand sides — or report ok=false, never a
// wrong answer.
func TestEchelon64MatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var rank RankScratch
	declined := 0
	for trial := 0; trial < 600; trial++ {
		rows, cols := rng.Intn(7), 1+rng.Intn(7)
		wide := trial%3 == 2
		m := randIntRows(rng, rows, cols, 1+int64(rng.Intn(9)), wide)

		null, ok := NullSpace64(m, cols)
		want := NullSpaceBasis(vecsOf(m), cols)
		if !ok {
			declined++
		} else {
			if len(null) != len(want) {
				t.Fatalf("trial %d: %d null vectors, big.Rat %d", trial, len(null), len(want))
			}
			for i := range null {
				if got := (Vec64{Num: null[i], Den: 1}).Vec().Key(); got != want[i].Key() {
					t.Fatalf("trial %d: null vector %d is %s, big.Rat %s", trial, i, got, want[i].Key())
				}
			}
		}

		e, ok := ReduceEchelon64(m, cols)
		if ok {
			ref := MatFromRows(vecsOf(m))
			if rows == 0 {
				ref = NewMat(0, cols)
			}
			pivots := ref.RowEchelon()
			if len(e.Pivots) != len(pivots) {
				t.Fatalf("trial %d: rank %d, big.Rat %d", trial, len(e.Pivots), len(pivots))
			}
			for i, pc := range pivots {
				if e.Pivots[i] != pc || e.Rows[i][pc] <= 0 {
					t.Fatalf("trial %d: pivot %d at %d (entry %d), big.Rat at %d", trial, i, e.Pivots[i], e.Rows[i][pc], pc)
				}
				got := Vec64{Num: e.Rows[i], Den: e.Rows[i][pc]}.Vec()
				if got.Key() != ref.Data[i].Key() {
					t.Fatalf("trial %d: echelon row %d %v, big.Rat %v", trial, i, got, ref.Data[i])
				}
			}
		}
		if r, ok := rank.Rank64(m, cols); ok && r != len(RowSpaceBasis(vecsOf(m))) {
			t.Fatalf("trial %d: Rank64 %d, big.Rat %d", trial, r, len(RowSpaceBasis(vecsOf(m))))
		}

		// A square system [A | B] with k right-hand sides.
		d, k := 1+rng.Intn(5), 1+rng.Intn(3)
		aug := randIntRows(rng, d, d+k, 1+int64(rng.Intn(9)), wide)
		num, den, ok := SolveSquareMany64(aug, k)
		a := NewMat(d, d+k)
		for i := range aug {
			for j, x := range aug[i] {
				a.Data[i][j].SetInt64(x)
			}
		}
		piv := a.RowEchelon()
		singular := len(piv) < d || piv[d-1] != d-1
		if !ok {
			continue
		}
		if singular {
			t.Fatalf("trial %d: SolveSquareMany64 solved a singular system %v", trial, aug)
		}
		if den <= 0 || len(num) != k {
			t.Fatalf("trial %d: denominator %d, %d solutions for %d right-hand sides", trial, den, len(num), k)
		}
		for j := 0; j < k; j++ {
			for i := 0; i < d; i++ {
				if got := new(big.Rat).SetFrac64(num[j][i], den); got.Cmp(a.Data[i][d+j]) != 0 {
					t.Fatalf("trial %d: x[%d][%d] = %s, big.Rat %s", trial, j, i, got.RatString(), a.Data[i][d+j].RatString())
				}
			}
		}
	}
	if declined == 0 {
		t.Fatal("no matrix overflowed int64: the wide trials do not reach the fallback")
	}
	t.Logf("%d of 600 null spaces declined on overflow", declined)
}

// TestEchelon64RejectsMinInt64 checks that an entry of magnitude 2^63,
// outside the kernel's domain, declines instead of wrapping.
func TestEchelon64RejectsMinInt64(t *testing.T) {
	if _, ok := ReduceEchelon64([][]int64{{math.MinInt64, 1}}, 2); ok {
		t.Fatal("ReduceEchelon64 accepted MinInt64")
	}
	if _, ok := LinComb64(1, []int64{math.MaxInt64}, -1, []int64{1}); ok {
		t.Fatal("LinComb64 accepted an overflowing sum")
	}
	if w, ok := LinComb64(3, []int64{2, 4}, 2, []int64{1, 2}); !ok || w[0] != 1 || w[1] != 2 {
		t.Fatalf("LinComb64(3·(2,4) − 2·(1,2)) = %v, %v; want [1 2]", w, ok)
	}
}
