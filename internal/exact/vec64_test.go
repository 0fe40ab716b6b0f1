package exact

import (
	"math/big"
	"math/rand"
	"testing"
)

// randQuantizedVec builds a random "quantized observation" vector: values
// on the 1/denom dyadic grid, the shape the LP rows and slab bounds take
// after core's quantisation (see lpQuantum / stats' axis grid).
func randQuantizedVec(rng *rand.Rand, n int, denom int64) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = new(big.Rat).SetFrac64(rng.Int63n(1<<22)-1<<21, denom)
	}
	return v
}

// TestVec64DotMatchesVec is the kernel/big equivalence property on the dot
// product every certificate check reduces to (DotRat64s), over quantized
// vectors on both sides: the shape of LP rows and rounded points.
func TestVec64DotMatchesVec(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	denoms := []int64{1, 256, 65536}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(24) + 1
		a := randQuantizedVec(rng, n, denoms[rng.Intn(len(denoms))])
		b := randQuantizedVec(rng, n, denoms[rng.Intn(len(denoms))])
		a64, ok := Vec64FromVec(a)
		if !ok {
			t.Fatalf("trial %d: quantized vectors must convert", trial)
		}
		xs := make([]Rat64, n)
		for i, x := range b {
			if xs[i], ok = MakeRat64(x.Num().Int64(), x.Denom().Int64()); !ok {
				t.Fatalf("trial %d: quantized entry %s must fit a Rat64", trial, x.RatString())
			}
		}
		want := a.Dot(b)
		got, ok := a64.DotRat64s(xs)
		if !ok {
			continue // promotion is allowed, silence is not: big path answers
		}
		if got.Rat(nil).Cmp(want) != 0 {
			t.Fatalf("trial %d: Vec64.DotRat64s = %s, Vec.Dot = %s", trial, got, want.RatString())
		}
	}
}

func TestVec64DotRat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(16) + 1
		row := randQuantizedVec(rng, n, 256)
		row64, ok := Vec64FromVec(row)
		if !ok {
			t.Fatal("row must convert")
		}
		xs := make([]Rat64, n)
		xv := make(Vec, n)
		for i := range xs {
			num, den := rng.Int63n(2048)-1024, rng.Int63n(64)+1
			r, ok := MakeRat64(num, den)
			if !ok {
				t.Fatal("small rational must construct")
			}
			xs[i] = r
			xv[i] = ratOf(num, den)
		}
		want := row.Dot(xv)
		got, ok := row64.DotRat64s(xs)
		if !ok {
			continue
		}
		if got.Rat(nil).Cmp(want) != 0 {
			t.Fatalf("trial %d: DotRat64s = %s, want %s", trial, got, want.RatString())
		}
	}
}

func TestVec64NormalizeIntegralAndKey(t *testing.T) {
	v := Vec64{Num: []int64{6, -9, 0, 12}, Den: 3}
	n := v.NormalizeIntegral()
	if n.Den != 1 || n.Num[0] != 2 || n.Num[1] != -3 || n.Num[2] != 0 || n.Num[3] != 4 {
		t.Fatalf("normalize = %+v", n)
	}
	// The int64 normalisation must agree with the big.Rat one on the same
	// values.
	bigSide := n.Vec().NormalizeIntegral()
	if n.Vec().Key() != bigSide.Key() {
		t.Fatalf("key mismatch: %q vs %q", n.Vec().Key(), bigSide.Key())
	}
	z := Vec64{Num: []int64{0, 0}, Den: 5}
	if nz := z.NormalizeIntegral(); nz.Den != 1 || !nz.Vec().IsZero() {
		t.Fatalf("zero normalize = %+v", nz)
	}
}

func TestVec64IntDotSign(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(12) + 1
		a := make([]int64, n)
		b := make([]int64, n)
		for i := range a {
			a[i] = rng.Int63n(4096) - 2048
			b[i] = rng.Int63n(4096) - 2048
		}
		v := Vec64{Num: a, Den: 1}
		got, ok := v.IntDotSign(b)
		if !ok {
			t.Fatal("small values must not overflow")
		}
		want := big.NewRat(0, 1)
		tmp := new(big.Rat)
		for i := range a {
			want.Add(want, tmp.SetInt64(a[i]*b[i]))
		}
		if got != want.Sign() {
			t.Fatalf("trial %d: sign %d want %d", trial, got, want.Sign())
		}
	}
}

func TestVec64FromVecRejectsWide(t *testing.T) {
	v := NewVec(2)
	v[0].SetString("123456789012345678901234567890/7")
	if _, ok := Vec64FromVec(v); ok {
		t.Fatal("wide numerator must be rejected")
	}
	w := NewVec(2)
	w[0].SetFrac64(1, 1<<40)
	w[1].SetFrac64(1, (1<<40)-1) // lcm of denominators overflows
	if _, ok := Vec64FromVec(w); ok {
		t.Fatal("denominator lcm overflow must be rejected")
	}
}
