package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/counters"
	"repro/internal/faultfs"
	"repro/internal/perfdb"
)

func TestLRUBasics(t *testing.T) {
	c := newLRU[int, string](2)
	c.Add(1, "a")
	c.Add(2, "b")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	// 2 is now least recently used; adding 3 evicts it.
	c.Add(3, "c")
	if _, ok := c.Get(2); ok {
		t.Fatal("expected 2 evicted")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Get(3); !ok {
		t.Fatal("new entry missing")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.Evictions() != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Evictions())
	}
	// Re-adding an existing key keeps the first value.
	if got := c.Add(1, "z"); got != "a" {
		t.Fatalf("Add(existing) = %q, want %q", got, "a")
	}
}

// TestLRUMatchesReference drives the index-linked ring through random
// Gets and Adds against a plain recency-ordered slice: every lookup,
// first-writer-wins result, length and eviction count must agree.
func TestLRUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, limit := range []int{1, 2, 3, 8} {
		c := newLRU[int, int](limit)
		type kv struct{ k, v int }
		var ref []kv // most recently used first
		var evictions uint64
		find := func(k int) int {
			for i, e := range ref {
				if e.k == k {
					return i
				}
			}
			return -1
		}
		for op := 0; op < 5000; op++ {
			k, v := rng.Intn(3*limit), op
			if rng.Intn(2) == 0 {
				got, ok := c.Get(k)
				i := find(k)
				if ok != (i >= 0) || ok && got != ref[i].v {
					t.Fatalf("limit %d op %d: Get(%d) = %d, %v; reference %v", limit, op, k, got, ok, ref)
				}
				if ok {
					e := ref[i]
					ref = append([]kv{e}, append(ref[:i:i], ref[i+1:]...)...)
				}
				continue
			}
			got := c.Add(k, v)
			if i := find(k); i >= 0 {
				e := ref[i]
				ref = append([]kv{e}, append(ref[:i:i], ref[i+1:]...)...)
				v = e.v
			} else {
				if len(ref) == limit {
					ref = ref[:limit-1]
					evictions++
				}
				ref = append([]kv{{k, v}}, ref...)
			}
			if got != v {
				t.Fatalf("limit %d op %d: Add(%d) = %d, want %d", limit, op, k, got, v)
			}
			if c.Len() != len(ref) || c.Evictions() != evictions {
				t.Fatalf("limit %d op %d: len %d evictions %d, want %d %d", limit, op, c.Len(), c.Evictions(), len(ref), evictions)
			}
		}
	}
}

// TestLPCacheAdmitsPastLimit is the regression test for the frozen-cache
// admission bug: the old map-based cache stopped admitting entries once
// full, so a long-lived engine eventually served every request uncached.
// With LRU, LP-hash memo entries admitted after the cap is reached must
// still hit.
func TestLPCacheAdmitsPastLimit(t *testing.T) {
	e := New(WithCacheLimits(4, 1))
	defer e.Close()
	m := pdeModel(t)
	s, err := e.NewSession(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 8 distinct observations fill the 4-entry memo twice over.
	var corpus []*counters.Observation
	for i := 0; i < 8; i++ {
		corpus = append(corpus, obsAround(fmt.Sprintf("o%d", i), 400+30*float64(i), 100, 50, int64(40+i)))
	}
	for _, o := range corpus {
		if _, err := s.Test(context.Background(), o); err != nil {
			t.Fatal(err)
		}
	}
	c := e.CacheStats()
	if c.LPMisses != 8 || c.LPHits != 0 {
		t.Fatalf("first pass: %d misses %d hits, want 8/0", c.LPMisses, c.LPHits)
	}
	if c.LPEvictions != 4 || c.LPEntries != 4 {
		t.Fatalf("evictions %d entries %d, want 4/4", c.LPEvictions, c.LPEntries)
	}
	// Re-testing the most recent 4 observations must hit the cache even
	// though it filled long ago.
	for _, o := range corpus[4:] {
		if _, err := s.Test(context.Background(), o); err != nil {
			t.Fatal(err)
		}
	}
	c = e.CacheStats()
	if c.LPHits != 4 {
		t.Fatalf("second pass: %d LP hits, want 4 (cache froze?)", c.LPHits)
	}
}

// TestVerdictCacheSkipsSolve pins the content-addressed verdict cache:
// re-evaluating the same observation serves the verdict from cache
// without another solver evaluation, and the reconstructed verdict is
// identical, violations included.
func TestVerdictCacheSkipsSolve(t *testing.T) {
	e := New()
	defer e.Close()
	s, err := e.NewSession(pdeModel(t), Config{IdentifyViolations: true})
	if err != nil {
		t.Fatal(err)
	}
	bad := obsAround("bad", 200, 500, 300, 2)
	v1, err := s.Test(context.Background(), bad)
	if err != nil {
		t.Fatal(err)
	}
	evalsAfterFirst := e.SolverStats().Evaluations
	v2, err := s.Test(context.Background(), bad)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.SolverStats().Evaluations; got != evalsAfterFirst {
		t.Fatalf("second test ran %d extra solver evaluations", got-evalsAfterFirst)
	}
	c := e.CacheStats()
	if c.VerdictHits == 0 {
		t.Fatalf("no verdict cache hit recorded: %+v", c)
	}
	if v1.Feasible != v2.Feasible {
		t.Fatal("cached verdict diverges")
	}
	if len(v1.Violations) != len(v2.Violations) {
		t.Fatalf("cached verdict lost violations: %v vs %v", v1.Violations, v2.Violations)
	}
	for i := range v1.Violations {
		if v1.Violations[i].String() != v2.Violations[i].String() {
			t.Fatalf("violation %d diverges: %v vs %v", i, v1.Violations[i], v2.Violations[i])
		}
	}
}

// mapStore is an in-memory VerdictStore for testing the read/write-through
// plumbing.
type mapStore struct {
	mu   sync.Mutex
	m    map[[32]byte]bool
	gets int
	puts int
	fail bool
}

func (s *mapStore) Get(key [32]byte) (bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	v, ok := s.m[key]
	return v, ok
}

func (s *mapStore) Put(key [32]byte, verdict bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	if s.fail {
		return fmt.Errorf("store down")
	}
	if s.m == nil {
		s.m = make(map[[32]byte]bool)
	}
	s.m[key] = verdict
	return nil
}

// TestVerdictStoreRoundTrip simulates a restart: verdicts written through
// to the store by one engine are served as store hits by a fresh engine
// sharing the same store — without re-running the solver.
func TestVerdictStoreRoundTrip(t *testing.T) {
	store := &mapStore{}
	corpus := mixedCorpus()

	e1 := New(WithVerdictStore(store))
	s1, err := e1.NewSession(pdeModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := s1.Evaluate(context.Background(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()
	if store.puts != res1.Total {
		t.Fatalf("store received %d puts, want %d", store.puts, res1.Total)
	}

	// "Restart": a fresh engine, fresh caches, same store.
	e2 := New(WithVerdictStore(store))
	defer e2.Close()
	s2, err := e2.NewSession(pdeModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Evaluate(context.Background(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Infeasible != res1.Infeasible || res2.Total != res1.Total {
		t.Fatalf("verdicts diverge across restart: %d/%d vs %d/%d",
			res2.Infeasible, res2.Total, res1.Infeasible, res1.Total)
	}
	if got := e2.SolverStats().Evaluations; got != 0 {
		t.Fatalf("restarted engine ran %d solver evaluations, want 0 (all store hits)", got)
	}
	c := e2.CacheStats()
	if c.StoreHits != uint64(res2.Total) {
		t.Fatalf("store hits %d, want %d: %+v", c.StoreHits, res2.Total, c)
	}
}

// TestVerdictStoreErrorsAreNonFatal pins the best-effort contract: a
// failing store surfaces in telemetry but never in verdicts.
func TestVerdictStoreErrorsAreNonFatal(t *testing.T) {
	store := &mapStore{fail: true}
	e := New(WithVerdictStore(store))
	defer e.Close()
	s, err := e.NewSession(pdeModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Evaluate(context.Background(), mixedCorpus())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total == 0 {
		t.Fatal("no verdicts")
	}
	if c := e.CacheStats(); c.StoreErrors == 0 {
		t.Fatalf("store failures not recorded: %+v", c)
	}
}

// TestEphemeralSessionsConsultVerdictCache: a session set up with the
// deprecated EphemeralObservations flag shares the region cache, the
// LP-hash memo and the verdict cache with every other session, so
// content seen before is never re-solved.
func TestEphemeralSessionsConsultVerdictCache(t *testing.T) {
	e := New()
	defer e.Close()
	cached, err := e.NewSession(pdeModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	eph, err := e.NewSession(pdeModel(t), Config{EphemeralObservations: true})
	if err != nil {
		t.Fatal(err)
	}
	o := obsAround("shared", 500, 200, 100, 9)
	v1, err := cached.Test(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	evals := e.SolverStats().Evaluations
	v2, err := eph.Test(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.SolverStats().Evaluations; got != evals {
		t.Fatal("ephemeral test re-solved a cached verdict")
	}
	if v1.Feasible != v2.Feasible {
		t.Fatal("ephemeral verdict diverges from cached verdict")
	}
	if v2.Region != v1.Region {
		t.Fatal("ephemeral test rebuilt a cached region")
	}
}

// lateWriterStore wraps a store whose records land from another writer
// just after this engine's lookup: the first Get of each key misses, later
// ones see the stored record.
type lateWriterStore struct {
	VerdictStore
	mu     sync.Mutex
	looked map[[32]byte]bool
}

func (s *lateWriterStore) Get(key [32]byte) (bool, bool) {
	s.mu.Lock()
	first := !s.looked[key]
	s.looked[key] = true
	s.mu.Unlock()
	if first {
		return false, false
	}
	return s.VerdictStore.Get(key)
}

// TestVerdictStoreConflictCounted checks a fresh verdict contradicting the
// store's record for the same LP hash is counted as a conflict (not a
// write error), the store keeps its first verdict, and the served verdicts
// are the freshly solved ones.
func TestVerdictStoreConflictCounted(t *testing.T) {
	corpus := mixedCorpus()
	rec := &mapStore{}
	e1 := New(WithVerdictStore(rec))
	s1, err := e1.NewSession(pdeModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s1.Evaluate(context.Background(), corpus)
	e1.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Another writer recorded the opposite verdict for every LP hash.
	disk, err := perfdb.OpenVerdictStoreFS(faultfs.NewMem(), "verdicts.db")
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for h, v := range rec.m {
		if err := disk.Put(h, !v); err != nil {
			t.Fatal(err)
		}
	}
	e2 := New(WithVerdictStore(&lateWriterStore{VerdictStore: disk, looked: map[[32]byte]bool{}}))
	defer e2.Close()
	s2, err := e2.NewSession(pdeModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Evaluate(context.Background(), corpus)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != want.Total || got.Infeasible != want.Infeasible {
		t.Fatalf("served %d/%d, fresh solves give %d/%d", got.Infeasible, got.Total, want.Infeasible, want.Total)
	}
	c := e2.CacheStats()
	if c.StoreConflicts != uint64(len(rec.m)) || c.StoreErrors != 0 {
		t.Fatalf("store_conflicts %d, store_errors %d; want %d, 0", c.StoreConflicts, c.StoreErrors, len(rec.m))
	}
	for h, v := range rec.m {
		if stored, ok := disk.Get(h); !ok || stored == v {
			t.Fatalf("store lost its first verdict for %x", h[:4])
		}
	}
}
