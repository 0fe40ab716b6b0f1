package exact

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func ratsEq(t *testing.T, got *big.Rat, want int64) {
	t.Helper()
	if got.Cmp(big.NewRat(want, 1)) != 0 {
		t.Fatalf("got %s, want %d", got.RatString(), want)
	}
}

func TestVecDot(t *testing.T) {
	v := VecFromInts(1, 2, 3)
	w := VecFromInts(4, 5, 6)
	ratsEq(t, v.Dot(w), 32)
}

func TestVecDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	VecFromInts(1).Dot(VecFromInts(1, 2))
}

func TestVecAddSubScale(t *testing.T) {
	v := VecFromInts(1, 2)
	w := VecFromInts(3, -4)
	if got := v.Add(w); !got.Equal(VecFromInts(4, -2)) {
		t.Fatalf("add: got %v", got)
	}
	if got := v.Sub(w); !got.Equal(VecFromInts(-2, 6)) {
		t.Fatalf("sub: got %v", got)
	}
	if got := v.Scale(big.NewRat(3, 1)); !got.Equal(VecFromInts(3, 6)) {
		t.Fatalf("scale: got %v", got)
	}
}

func TestAddScaled(t *testing.T) {
	v := VecFromInts(1, 1)
	v.AddScaled(big.NewRat(1, 2), VecFromInts(4, 6))
	if !v.Equal(VecFromInts(3, 4)) {
		t.Fatalf("got %v", v)
	}
}

func TestNormalizeIntegral(t *testing.T) {
	cases := []struct {
		in   Vec
		want Vec
	}{
		{VecFromInts(2, 4, 6), VecFromInts(1, 2, 3)},
		{VecFromInts(0, 0), VecFromInts(0, 0)},
		{Vec{big.NewRat(1, 2), big.NewRat(1, 3)}, VecFromInts(3, 2)},
		{VecFromInts(-2, -4), VecFromInts(-1, -2)},
		{VecFromInts(5), VecFromInts(1)},
	}
	for i, c := range cases {
		if got := c.in.NormalizeIntegral(); !got.Equal(c.want) {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
		}
	}
}

func TestNormalizeIntegralProperty(t *testing.T) {
	// Property: the normalised vector is a positive multiple of the input,
	// with integral coprime entries.
	f := func(a, b, c int16, d uint8) bool {
		den := int64(d) + 1
		v := Vec{big.NewRat(int64(a), den), big.NewRat(int64(b), den), big.NewRat(int64(c), 1)}
		n := v.NormalizeIntegral()
		if v.IsZero() {
			return n.IsZero()
		}
		// Find a non-zero coordinate and compute the ratio.
		var ratio *big.Rat
		for i := range v {
			if v[i].Sign() != 0 {
				ratio = new(big.Rat).Quo(n[i], v[i])
				break
			}
		}
		if ratio == nil || ratio.Sign() <= 0 {
			return false
		}
		for i := range v {
			want := new(big.Rat).Mul(v[i], ratio)
			if n[i].Cmp(want) != 0 {
				return false
			}
			if !n[i].IsInt() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRowEchelonRank(t *testing.T) {
	m := MatFromRows([]Vec{
		VecFromInts(1, 2, 3),
		VecFromInts(2, 4, 6),
		VecFromInts(1, 0, 1),
	})
	if r := m.Rank(); r != 2 {
		t.Fatalf("rank: got %d want 2", r)
	}
}

func TestNullSpaceBasis(t *testing.T) {
	// x + y + z = 0 has a 2-dimensional null space.
	basis := NullSpaceBasis([]Vec{VecFromInts(1, 1, 1)}, 3)
	if len(basis) != 2 {
		t.Fatalf("null space dim: got %d want 2", len(basis))
	}
	row := VecFromInts(1, 1, 1)
	for _, b := range basis {
		if row.Dot(b).Sign() != 0 {
			t.Fatalf("basis vector %v not in null space", b)
		}
	}
}

func TestNullSpaceEmptyRows(t *testing.T) {
	basis := NullSpaceBasis(nil, 2)
	if len(basis) != 2 {
		t.Fatalf("got %d basis vectors, want 2", len(basis))
	}
}

func TestNullSpaceFullRank(t *testing.T) {
	basis := NullSpaceBasis([]Vec{VecFromInts(1, 0), VecFromInts(0, 1)}, 2)
	if len(basis) != 0 {
		t.Fatalf("got %d basis vectors, want 0", len(basis))
	}
}

func TestRowSpaceBasis(t *testing.T) {
	basis := RowSpaceBasis([]Vec{
		VecFromInts(1, 1, 0),
		VecFromInts(2, 2, 0),
		VecFromInts(0, 0, 1),
	})
	if len(basis) != 2 {
		t.Fatalf("row space dim: got %d want 2", len(basis))
	}
}

func TestSolveInSpan(t *testing.T) {
	basis := []Vec{VecFromInts(1, 0, 1), VecFromInts(0, 1, 1)}
	coeffs, ok := SolveInSpan(VecFromInts(2, 3, 5), basis)
	if !ok {
		t.Fatal("expected solvable")
	}
	ratsEq(t, coeffs[0], 2)
	ratsEq(t, coeffs[1], 3)
	if _, ok := SolveInSpan(VecFromInts(0, 0, 1), basis); ok {
		t.Fatal("expected unsolvable")
	}
}

func TestSolveInSpanEmptyBasis(t *testing.T) {
	if _, ok := SolveInSpan(VecFromInts(0, 0), nil); !ok {
		t.Fatal("zero should be in empty span")
	}
	if _, ok := SolveInSpan(VecFromInts(1, 0), nil); ok {
		t.Fatal("non-zero should not be in empty span")
	}
}

func TestNullSpacePropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		rows := rng.Intn(4) + 1
		cols := rng.Intn(5) + 1
		rs := make([]Vec, rows)
		for i := range rs {
			rs[i] = NewVec(cols)
			for j := 0; j < cols; j++ {
				rs[i][j].SetInt64(int64(rng.Intn(7) - 3))
			}
		}
		basis := NullSpaceBasis(rs, cols)
		// rank-nullity
		if got := len(basis) + MatFromRows(rs).Rank(); got != cols {
			t.Fatalf("rank-nullity violated: %d != %d", got, cols)
		}
		for _, b := range basis {
			for _, r := range rs {
				if r.Dot(b).Sign() != 0 {
					t.Fatalf("null space vector not annihilated")
				}
			}
		}
	}
}

func TestVecKeyAndClone(t *testing.T) {
	v := VecFromInts(1, 2)
	w := v.Clone()
	w[0].SetInt64(9)
	if v[0].Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatal("clone aliases original")
	}
	if v.Key() == w.Key() {
		t.Fatal("keys should differ")
	}
}

func TestVecFloats(t *testing.T) {
	fs := Vec{big.NewRat(1, 2), big.NewRat(2, 1)}.Floats()
	if fs[0] != 0.5 || fs[1] != 2 {
		t.Fatalf("floats: %v", fs)
	}
}
