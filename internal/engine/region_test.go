package engine

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"weak"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/stats"
)

// This file pins the contract of the engine's region cache: regions are
// addressed by a digest of the samples they are built from, so any copy
// of an observation shares one entry; a cached region equals the direct
// construction bit for bit; it retains nothing of the request that built
// it; and the cache evicts its least recently used entry when full.

// TestRegionCacheMatchesNewRegion: the region behind every verdict, on
// its first (miss) and second (hit) test, equals stats.NewRegion over the
// observation projected onto the model's set, in both noise modes, at two
// confidences, for an observation over the model's own set and for one
// recording an extra counter.
func TestRegionCacheMatchesNewRegion(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	m := pdeModel(t)
	wide := counters.NewObservation("wide", counters.NewSet("load.ret", "load.pde$_miss", "load.causes_walk"))
	for i := 0; i < 40; i++ {
		x := float64(i%7) - 3
		wide.Append([]float64{900 + 2*x, 100 + x, 500 - x*x})
	}
	for _, o := range []*counters.Observation{obsAround("own", 500, 100, 60, 5), wide} {
		for _, mode := range []stats.NoiseMode{stats.Correlated, stats.Independent} {
			for _, conf := range []float64{0.99, 0.95} {
				s, err := e.SessionFor(m, Config{Confidence: conf, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				want, err := stats.NewRegion(o.Project(m.Set), conf, mode)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 1; pass <= 2; pass++ {
					v, err := s.Test(context.Background(), o)
					if err != nil {
						t.Fatal(err)
					}
					r := v.Region
					if r.Set != m.Set || r.Mode != mode || r.Confidence != conf || r.Key() != want.Key() ||
						!reflect.DeepEqual(r.Mean, want.Mean) || !reflect.DeepEqual(r.Axes, want.Axes) ||
						!reflect.DeepEqual(r.HalfWidths, want.HalfWidths) {
						t.Fatalf("%s %v %g pass %d: cached region differs from NewRegion", o.Label, mode, conf, pass)
					}
				}
			}
		}
	}
	if c := e.CacheStats(); c.RegionMisses != 8 || c.RegionHits != 8 || c.RegionEntries != 8 {
		t.Fatalf("region misses %d hits %d entries %d, want 8/8/8", c.RegionMisses, c.RegionHits, c.RegionEntries)
	}
}

// TestRegionCacheShared: two models over one counter set share one region
// per observation; copies differing only in label or pointer share that
// entry while each verdict keeps its own label; and a one-ULP change to a
// single sample gets an entry of its own.
func TestRegionCacheShared(t *testing.T) {
	e := New()
	defer e.Close()
	corpus := mixedCorpus()
	m1 := pdeModel(t)
	m2, err := core.ModelFromDSL("refined", `
do LookupPde$;
switch Pde$Status {
    Hit  => pass;
    Miss => {
        incr load.pde$_miss;
        switch Abort { Yes => done; No => pass; };
    };
};
do StartWalk;
incr load.causes_walk;
done;
`, pdeSet())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*core.Model{m1, m2} {
		s, err := e.NewSession(m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Evaluate(context.Background(), corpus); err != nil {
			t.Fatal(err)
		}
	}
	// Four observations, one counter set, one confidence, one mode: four
	// cached regions total, not eight.
	c := e.CacheStats()
	if c.RegionEntries != len(corpus) || c.RegionMisses != 4 || c.RegionHits != 4 {
		t.Fatalf("region entries %d misses %d hits %d, want 4/4/4", c.RegionEntries, c.RegionMisses, c.RegionHits)
	}

	s, err := e.SessionFor(m1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	orig := corpus[2]
	for i, o := range decodedCopies(t, orig, 3) {
		o.Label = fmt.Sprintf("copy-%d", i)
		v, err := s.Test(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if v.Observation != o.Label {
			t.Fatalf("copy %d: verdict labelled %q", i, v.Observation)
		}
	}
	if c = e.CacheStats(); c.RegionEntries != 4 || c.RegionHits != 7 {
		t.Fatalf("relabelled copies: entries %d hits %d, want 4/7", c.RegionEntries, c.RegionHits)
	}
	bumped := decodedCopies(t, orig, 1)[0]
	bumped.Samples[3][0] = math.Nextafter(bumped.Samples[3][0], math.Inf(1))
	if _, err := s.Test(context.Background(), bumped); err != nil {
		t.Fatal(err)
	}
	if c = e.CacheStats(); c.RegionEntries != 5 || c.RegionMisses != 5 {
		t.Fatalf("one-ULP change: entries %d misses %d, want 5/5", c.RegionEntries, c.RegionMisses)
	}
}

// TestRegionCacheDoesNotPin: a decoded request observation is collectable
// once its verdict is delivered, though the verdict (and the cached region
// it points at) stays live; the region holds the model's counter set, not
// the request's.
func TestRegionCacheDoesNotPin(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	m := pdeModel(t)
	s, err := e.SessionFor(m, Config{IdentifyViolations: true})
	if err != nil {
		t.Fatal(err)
	}
	var verdicts []*core.Verdict
	var obs []weak.Pointer[counters.Observation]
	var sets []weak.Pointer[counters.Set]
	for _, src := range mixedCorpus() {
		o := decodedCopies(t, src, 1)[0]
		v, err := s.Test(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if v.Region.Set != m.Set {
			t.Fatalf("%s: cached region holds the request's counter set", o.Label)
		}
		verdicts = append(verdicts, v)
		obs = append(obs, weak.Make(o))
		sets = append(sets, weak.Make(o.Set))
	}
	runtime.GC()
	runtime.GC()
	for i := range obs {
		if obs[i].Value() != nil || sets[i].Value() != nil {
			t.Fatalf("request %d is still reachable after its verdict", i)
		}
	}
	if c := e.CacheStats(); c.RegionEntries != len(verdicts) {
		t.Fatalf("%d cached regions, want %d", c.RegionEntries, len(verdicts))
	}
	runtime.KeepAlive(verdicts)
}

// TestRegionCacheEvicts: a flood of more than regionCacheLimit one-shot
// observations keeps a hot set that is re-tested during the flood
// resident, evicts it (and counts the evictions) once a second flood
// passes it by, and then re-admits it.
func TestRegionCacheEvicts(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	s, err := e.SessionFor(pdeModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Three samples keep each one-shot region and LP cheap; seeds keep
	// every one-shot's content distinct from the hot set's.
	one := func(i int) *counters.Observation {
		return obsAround(fmt.Sprintf("flood-%d", i), 500, 100, 3, int64(1000+i))
	}
	hot := mixedCorpus()
	test := func(obs ...*counters.Observation) CacheCounts {
		t.Helper()
		for _, o := range obs {
			if _, err := s.Test(context.Background(), o); err != nil {
				t.Fatal(err)
			}
		}
		return e.CacheStats()
	}
	test(hot...)
	const flood = regionCacheLimit + regionCacheLimit/4
	for i := 0; i < flood; i++ {
		test(one(i))
		if i%512 == 0 {
			before := e.CacheStats().RegionHits
			if got := test(hot...).RegionHits - before; got != uint64(len(hot)) {
				t.Fatalf("flood step %d: hot set took %d of %d hits", i, got, len(hot))
			}
		}
	}
	c := e.CacheStats()
	if want := uint64(len(hot) + flood - regionCacheLimit); c.RegionEvictions != want || c.RegionEntries != regionCacheLimit {
		t.Fatalf("after flood: evictions %d entries %d, want %d/%d", c.RegionEvictions, c.RegionEntries, want, regionCacheLimit)
	}
	for i := flood; i < flood+regionCacheLimit; i++ {
		test(one(i))
	}
	before := e.CacheStats()
	after := test(hot...)
	if misses := after.RegionMisses - before.RegionMisses; misses != uint64(len(hot)) {
		t.Fatalf("evicted hot set: %d misses, want %d", misses, len(hot))
	}
	if hits := test(hot...).RegionHits - after.RegionHits; hits != uint64(len(hot)) {
		t.Fatalf("re-admitted hot set: %d hits, want %d", hits, len(hot))
	}
}
