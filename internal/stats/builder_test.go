package stats

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/counters"
)

func builderObs(label string, seed int64) *counters.Observation {
	set := counters.NewSet("a", "b", "c")
	o := counters.NewObservation(label, set)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 100; i++ {
		x := 100 + 5*rng.NormFloat64()
		o.Append([]float64{x, x + rng.NormFloat64(), 50 + rng.NormFloat64()})
	}
	return o
}

// TestBuilderMatchesNewRegion checks the builder's construction is
// observationally identical to the direct one, bit for bit, and that the
// region holds the requested set, not the observation's.
func TestBuilderMatchesNewRegion(t *testing.T) {
	b := NewRegionBuilder()
	o := builderObs("x", 1)
	twin := counters.NewSet("a", "b", "c")
	for _, mode := range []NoiseMode{Correlated, Independent} {
		got, err := b.RegionUncached(o, twin, 0.99, mode)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewRegion(o, 0.99, mode)
		if err != nil {
			t.Fatal(err)
		}
		if got.Set != twin || got.Mode != want.Mode || got.Key() != want.Key() {
			t.Fatalf("region identity mismatch")
		}
		var d RegionDigest
		if got.Key() != d.Key(o, twin, 0.99, mode) {
			t.Fatal("region key differs from the digest of its samples")
		}
		if !reflect.DeepEqual(got.Mean, want.Mean) || !reflect.DeepEqual(got.Axes, want.Axes) || !reflect.DeepEqual(got.HalfWidths, want.HalfWidths) {
			t.Fatalf("%v: builder region differs from NewRegion", mode)
		}
	}
}

// TestRegionDigestKeys checks the digest addresses a region by exactly
// the content it is built from: copies differing in label or pointer, and
// a superset observation against its explicit projection, share a key;
// the target set, mode, confidence and a one-ULP sample change each get
// their own; and a warm digest allocates nothing.
func TestRegionDigestKeys(t *testing.T) {
	var d RegionDigest
	o := builderObs("x", 2)
	key := func(o *counters.Observation, set *counters.Set, c float64, m NoiseMode) [16]byte {
		return d.Key(o, set, c, m)
	}
	base := key(o, nil, 0.99, Correlated)
	copyOf := &counters.Observation{Label: "renamed", Set: counters.NewSet("a", "b", "c"), Samples: o.Samples}
	if key(copyOf, nil, 0.99, Correlated) != base {
		t.Fatal("label or set pointer changed the digest")
	}
	sub := counters.NewSet("c", "a")
	if key(o, sub, 0.99, Correlated) != key(o.Project(sub), nil, 0.99, Correlated) {
		t.Fatal("in-place projection digest differs from Project's")
	}
	wide := counters.NewSet("a", "z", "b", "c")
	if key(o, wide, 0.99, Correlated) != key(o.Project(wide), nil, 0.99, Correlated) {
		t.Fatal("missing counters do not digest as Project's zeros")
	}
	bumped := o.Project(o.Set)
	bumped.Samples[7][1] = math.Nextafter(bumped.Samples[7][1], math.Inf(1))
	distinct := map[[16]byte]string{base: "base"}
	for name, k := range map[string][16]byte{
		"subset":      key(o, sub, 0.99, Correlated),
		"independent": key(o, nil, 0.99, Independent),
		"confidence":  key(o, nil, 0.95, Correlated),
		"one ULP":     key(bumped, nil, 0.99, Correlated),
		"one sample":  key(&counters.Observation{Set: o.Set, Samples: o.Samples[1:]}, nil, 0.99, Correlated),
	} {
		if prev, dup := distinct[k]; dup {
			t.Fatalf("%s shares a digest with %s", name, prev)
		}
		distinct[k] = name
	}
	if n := testing.AllocsPerRun(20, func() { key(o, wide, 0.99, Correlated) }); n != 0 {
		t.Fatalf("warm digest allocates %v times", n)
	}
}

// TestBuilderChiSquareMemo checks the quantile cache agrees with the
// package-level function.
func TestBuilderChiSquareMemo(t *testing.T) {
	b := NewRegionBuilder()
	for i := 0; i < 3; i++ {
		got, err := b.ChiSquareQuantile(0.99, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ChiSquareQuantile(0.99, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("quantile %g, want %g", got, want)
		}
	}
	if _, err := b.ChiSquareQuantile(1.5, 5); err == nil {
		t.Fatal("invalid confidence should error")
	}
}

// TestBuilderConcurrent hammers one builder from many goroutines; the race
// detector catches unsynchronised access to the χ² memo, and every build
// of one observation must give the same region key.
func TestBuilderConcurrent(t *testing.T) {
	b := NewRegionBuilder()
	obs := []*counters.Observation{builderObs("p", 3), builderObs("q", 4)}
	var wg sync.WaitGroup
	keys := make([][16]byte, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := b.RegionUncached(obs[i%2], nil, 0.99, Correlated)
			if err != nil {
				t.Error(err)
				return
			}
			keys[i] = r.Key()
		}(i)
	}
	wg.Wait()
	for i := 2; i < 16; i++ {
		if keys[i] != keys[i%2] {
			t.Fatalf("goroutine %d built a different region", i)
		}
	}
	if keys[0] == keys[1] {
		t.Fatal("distinct observations share a region key")
	}
}

// BenchmarkRegionDigest measures the region cache's key: a SHA-256 over
// an observation's samples, read in place over its own set (own) and
// projected onto a reordered subset (projected).
func BenchmarkRegionDigest(b *testing.B) {
	o := builderObs("x", 5)
	sub := counters.NewSet("c", "a")
	var d RegionDigest
	for _, c := range []struct {
		name string
		set  *counters.Set
	}{{"own", nil}, {"projected", sub}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				d.Key(o, c.set, 0.99, Correlated)
			}
		})
	}
}
