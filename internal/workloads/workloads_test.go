package workloads

import (
	"testing"
)

func TestLinearAscending(t *testing.T) {
	g, err := NewLinear(4096, 64, 1.0, false)
	if err != nil {
		t.Fatal(err)
	}
	a0 := g.Next()
	a1 := g.Next()
	if a0.VA != VABase || a1.VA != VABase+64 {
		t.Fatalf("addresses: %#x %#x", a0.VA, a1.VA)
	}
	if !a0.IsLoad || !a1.IsLoad {
		t.Fatal("loadRatio 1.0 should be all loads")
	}
	// Wraps around the footprint.
	for i := 0; i < 62; i++ {
		g.Next()
	}
	if a := g.Next(); a.VA != VABase {
		t.Fatalf("wrap: %#x", a.VA)
	}
}

func TestLinearDescending(t *testing.T) {
	g, err := NewLinear(4096, 64, 1.0, true)
	if err != nil {
		t.Fatal(err)
	}
	a0 := g.Next()
	a1 := g.Next()
	if a0.VA <= a1.VA {
		t.Fatalf("descending should decrease: %#x then %#x", a0.VA, a1.VA)
	}
}

// TestLinearDescendingNonDividingStride is the regression test for the
// uint64 underflow in the descending offset arithmetic: with
// footprint=100, stride=64 the old footprint-stride-off expression wrapped
// below zero once off exceeded footprint-stride, producing 2^64-wrapped
// addresses (offset 88 where the descending sweep should visit 72).
func TestLinearDescendingNonDividingStride(t *testing.T) {
	g, err := NewLinear(100, 64, 1.0, true)
	if err != nil {
		t.Fatal(err)
	}
	// The descending sweep visits -(k+1)*64 mod 100.
	want := []uint64{36, 72, 8, 44, 80, 16, 52, 88, 24, 60, 96, 32, 68, 4, 40}
	for k, w := range want {
		a := g.Next()
		if a.VA != VABase+w {
			t.Fatalf("access %d: offset %d, want %d", k, a.VA-VABase, w)
		}
		if a.VA < VABase || a.VA >= VABase+100 {
			t.Fatalf("access %d escaped the footprint: %#x", k, a.VA)
		}
	}
}

// TestLinearDescendingStrideEqualsHalfFootprint pins the pos==0 edge: when
// off+stride lands exactly on the footprint the descending offset must fold
// back to 0, not footprint.
func TestLinearDescendingStrideEqualsHalfFootprint(t *testing.T) {
	g, err := NewLinear(128, 64, 1.0, true)
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range []uint64{64, 0, 64, 0} {
		if a := g.Next(); a.VA != VABase+w {
			t.Fatalf("access %d: offset %d, want %d", k, a.VA-VABase, w)
		}
	}
}

func TestLinearStoreRatio(t *testing.T) {
	g, err := NewLinear(1<<20, 64, 0.75, false)
	if err != nil {
		t.Fatal(err)
	}
	loads := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if g.Next().IsLoad {
			loads++
		}
	}
	ratio := float64(loads) / n
	if ratio < 0.70 || ratio > 0.80 {
		t.Fatalf("load ratio %g, want ~0.75", ratio)
	}
	// Store-only.
	gs, _ := NewLinear(1<<20, 64, 0.0, false)
	for i := 0; i < 100; i++ {
		if gs.Next().IsLoad {
			t.Fatal("loadRatio 0 should be all stores")
		}
	}
}

func TestLinearErrors(t *testing.T) {
	if _, err := NewLinear(0, 64, 1, false); err == nil {
		t.Fatal("zero footprint should error")
	}
	if _, err := NewLinear(4096, 0, 1, false); err == nil {
		t.Fatal("zero stride should error")
	}
}

func TestRandomStaysInFootprint(t *testing.T) {
	const fp = 1 << 20
	g, err := NewRandom(fp, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		a := g.Next()
		if a.VA < VABase || a.VA >= VABase+fp {
			t.Fatalf("out of footprint: %#x", a.VA)
		}
	}
}

// TestRandomTinyFootprintRejected is the regression test for the
// modulo-by-zero panic: NewRandom used to accept footprints 1–7, whose
// footprint/8 slot count is zero, so the first Next panicked.
func TestRandomTinyFootprintRejected(t *testing.T) {
	for _, fp := range []uint64{0, 1, 4, 7} {
		if _, err := NewRandom(fp, 1.0, 1); err == nil {
			t.Errorf("footprint %d should be rejected", fp)
		}
	}
	// The minimum footprint works and stays inside its single slot.
	g, err := NewRandom(8, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a := g.Next(); a.VA != VABase {
			t.Fatalf("one-slot footprint must pin VA to VABase, got %#x", a.VA)
		}
	}
}

// TestMinimumFootprints covers every generator's minimum-footprint edge the
// same way: one byte under the minimum is rejected, the minimum itself
// produces in-range accesses.
func TestMinimumFootprints(t *testing.T) {
	cases := []struct {
		name string
		min  uint64
		mk   func(fp uint64) (Generator, error)
	}{
		{"random", 8, func(fp uint64) (Generator, error) { return NewRandom(fp, 1.0, 1) }},
		{"randomburst", 4096, func(fp uint64) (Generator, error) { return NewRandomBurst(fp, 4, 1.0, 1) }},
		{"zipfian", 128, func(fp uint64) (Generator, error) { return NewZipfian(fp, 1.2, 1.0, 1) }},
		{"stencil", 192, func(fp uint64) (Generator, error) { return NewStencil(fp, 1.0) }},
		{"pointerchase", 128, func(fp uint64) (Generator, error) { return NewPointerChase(fp, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.mk(tc.min - 1); err == nil {
				t.Fatalf("footprint %d should be rejected", tc.min-1)
			}
			g, err := tc.mk(tc.min)
			if err != nil {
				t.Fatalf("minimum footprint %d rejected: %v", tc.min, err)
			}
			for i := 0; i < 500; i++ {
				if a := g.Next(); a.VA < VABase || a.VA >= VABase+tc.min {
					t.Fatalf("access %d out of [VABase, VABase+%d): %#x", i, tc.min, a.VA)
				}
			}
		})
	}
}

func TestRandomDeterministic(t *testing.T) {
	g1, _ := NewRandom(1<<20, 0.5, 42)
	g2, _ := NewRandom(1<<20, 0.5, 42)
	for i := 0; i < 100; i++ {
		if g1.Next() != g2.Next() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRandomBurstStructure(t *testing.T) {
	g, err := NewRandomBurst(1<<24, 8, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	accs := Take(g, 16)
	page := func(a Access) uint64 { return a.VA >> 12 }
	for i := 1; i < 8; i++ {
		if page(accs[i]) != page(accs[0]) {
			t.Fatalf("burst access %d left the page", i)
		}
	}
	for i := 9; i < 16; i++ {
		if page(accs[i]) != page(accs[8]) {
			t.Fatalf("second burst access %d left the page", i)
		}
	}
}

func TestRandomBurstErrors(t *testing.T) {
	if _, err := NewRandomBurst(100, 8, 1, 1); err == nil {
		t.Fatal("small footprint should error")
	}
	if _, err := NewRandomBurst(1<<20, 0, 1, 1); err == nil {
		t.Fatal("zero burst should error")
	}
}

func TestPointerChaseCyclesAllNodes(t *testing.T) {
	g, err := NewPointerChase(64*16, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 16; i++ {
		seen[g.Next().VA] = true
	}
	if len(seen) != 16 {
		t.Fatalf("cycle covered %d nodes, want 16", len(seen))
	}
	// Second lap repeats the same nodes.
	if !seen[g.Next().VA] {
		t.Fatal("second lap should repeat")
	}
}

func TestZipfianSkew(t *testing.T) {
	g, err := NewZipfian(1<<20, 1.5, 1.0, 9)
	if err != nil {
		t.Fatal(err)
	}
	freq := map[uint64]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		freq[g.Next().VA]++
	}
	max := 0
	for _, c := range freq {
		if c > max {
			max = c
		}
	}
	if max < n/20 {
		t.Fatalf("zipf should be skewed: hottest slot only %d/%d", max, n)
	}
	if _, err := NewZipfian(1<<20, 0.5, 1, 1); err == nil {
		t.Fatal("skew <= 1 should error")
	}
}

func TestStencilTouchesNeighbours(t *testing.T) {
	g, err := NewStencil(4096, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	a := Take(g, 3)
	// left neighbour (wrapped), centre, right.
	if a[1].VA != VABase {
		t.Fatalf("centre: %#x", a[1].VA)
	}
	if a[0].VA != VABase+4096-64 {
		t.Fatalf("left wrap: %#x", a[0].VA)
	}
	if a[2].VA != VABase+64 {
		t.Fatalf("right: %#x", a[2].VA)
	}
	if _, err := NewStencil(64, 1); err == nil {
		t.Fatal("tiny stencil should error")
	}
}

func TestTake(t *testing.T) {
	g, _ := NewLinear(4096, 64, 1, false)
	if got := len(Take(g, 7)); got != 7 {
		t.Fatalf("take: %d", got)
	}
}

func TestNamesAreDescriptive(t *testing.T) {
	gens := []Generator{}
	l, _ := NewLinear(4096, 64, 0.5, true)
	r, _ := NewRandom(1<<20, 1, 1)
	b, _ := NewRandomBurst(1<<20, 8, 1, 1)
	p, _ := NewPointerChase(1<<12, 1)
	z, _ := NewZipfian(1<<20, 1.2, 1, 1)
	s, _ := NewStencil(4096, 1)
	gens = append(gens, l, r, b, p, z, s)
	seen := map[string]bool{}
	for _, g := range gens {
		n := g.Name()
		if n == "" || seen[n] {
			t.Fatalf("name %q empty or duplicated", n)
		}
		seen[n] = true
	}
}

// Take drains n accesses from g into a slice.
func Take(g Generator, n int) []Access {
	out := make([]Access, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
