package engine

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/counters"
	"repro/internal/stats"
)

// The acceptance benchmark of the batched-engine refactor: evaluate a
// 500-observation corpus against one model, comparing
//
//   - PerCall     — the seed path: core.TestObservation per observation,
//     rebuilding the confidence region and a fresh rational LP every time;
//   - SessionCold — a brand-new engine per iteration (first-corpus cost:
//     workspace reuse and quantile memoisation, but no warm region cache);
//   - Session     — a long-lived engine, the steady state of a model sweep
//     or a continuously-running checking service, where the corpus regions
//     are already cached.
//
// Run with -benchmem; the refactor's acceptance criterion is ≥2× fewer
// allocations for Session than PerCall.

func benchCorpus(n int) []*counters.Observation {
	corpus := make([]*counters.Observation, 0, n)
	for i := 0; i < n; i++ {
		label, cw, pm := "ok", 500.0, 100.0
		if i%5 == 4 {
			label, cw, pm = "bad", 100.0, 400.0
		}
		corpus = append(corpus, obsAround(label, cw, pm, 50, int64(i)))
	}
	return corpus
}

func BenchmarkCorpusPerCall(b *testing.B) {
	m := pdeModel(b)
	corpus := benchCorpus(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inf := 0
		for _, o := range corpus {
			v, err := m.TestObservation(o, core.DefaultConfidence, stats.Correlated, false)
			if err != nil {
				b.Fatal(err)
			}
			if !v.Feasible {
				inf++
			}
		}
		if inf != 100 {
			b.Fatalf("infeasible %d", inf)
		}
	}
}

func BenchmarkCorpusSessionCold(b *testing.B) {
	m := pdeModel(b)
	corpus := benchCorpus(500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New()
		s, err := e.NewSession(m, Config{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Evaluate(context.Background(), corpus)
		if err != nil {
			b.Fatal(err)
		}
		if res.Infeasible != 100 {
			b.Fatalf("infeasible %d", res.Infeasible)
		}
		e.Close()
	}
}

func BenchmarkCorpusSession(b *testing.B) {
	m := pdeModel(b)
	corpus := benchCorpus(500)
	e := New()
	defer e.Close()
	s, err := e.NewSession(m, Config{})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the engine caches once — the steady state under measurement.
	if _, err := s.Evaluate(context.Background(), corpus); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Evaluate(context.Background(), corpus)
		if err != nil {
			b.Fatal(err)
		}
		if res.Infeasible != 100 {
			b.Fatalf("infeasible %d", res.Infeasible)
		}
	}
}

// BenchmarkSweepPerCall / BenchmarkSweepSession measure the Figure 1b/9
// shape: the same corpus against several restrictions of one model, where
// the engine's restricted-model and region caches pay off even from cold.
func BenchmarkSweepPerCall(b *testing.B) {
	m := pdeModel(b)
	corpus := benchCorpus(100)
	sets := []*counters.Set{
		counters.NewSet("load.causes_walk"),
		counters.NewSet("load.pde$_miss"),
		pdeSet(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, set := range sets {
			sub, err := m.Restrict(set)
			if err != nil {
				b.Fatal(err)
			}
			for _, o := range corpus {
				if _, err := sub.TestObservation(o, core.DefaultConfidence, stats.Correlated, false); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkSweepSession(b *testing.B) {
	m := pdeModel(b)
	corpus := benchCorpus(100)
	sets := []*counters.Set{
		counters.NewSet("load.causes_walk"),
		counters.NewSet("load.pde$_miss"),
		pdeSet(),
	}
	e := New()
	defer e.Close()
	s, err := e.NewSession(m, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, set := range sets {
			sub, err := s.Restrict(set)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sub.Evaluate(context.Background(), corpus); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamIngest measures the per-observation cost of the online
// refutation path behind POST /v1/streams/{id}/ingest: Session.Test on
// one long-lived session, each verdict folded into a StreamFold, under
// the service configuration (violations on).
//
//   - fresh — every ingested observation is new content, the steady state
//     of a live counter feed: an uncached confidence region, a fresh
//     feasibility LP and an exact solve per ingest (the pde LP is below
//     the float filter's size gate), with only the LP-hash memo insert
//     and the verdict-cache probe shared;
//   - warm — the same observation re-ingested, isolating the fixed
//     per-ingest overhead (state fold, scratch checkout, memo and
//     verdict-cache hits) with no LP built, hashed or solved in the
//     timed loop.
func BenchmarkStreamIngest(b *testing.B) {
	const chunk = 512
	freshChunk := func(lap int) []*counters.Observation {
		// Slow drift, like a real feed: each lap is new content, close to
		// its neighbours.
		return driftCorpus(pdeSet(), chunk, 60,
			[]float64{500, 200}, []float64{0.25, 0.125}, int64(1000+lap))
	}
	newIngestSession := func(b *testing.B) (*Engine, *Session, StreamFold) {
		e := New(WithWorkers(1))
		s, err := e.NewSession(pdeModel(b), Config{IdentifyViolations: true})
		if err != nil {
			e.Close()
			b.Fatal(err)
		}
		return e, s, NewStreamFold(s.Config().Confidence)
	}
	ingest := func(b *testing.B, s *Session, f *StreamFold, o *counters.Observation) {
		v, err := s.Test(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		f.Add(v)
	}

	b.Run("fresh", func(b *testing.B) {
		e, s, f := newIngestSession(b)
		defer e.Close()
		// Warm once with content outside the drift corpus, so every timed
		// ingest really is first-sight content.
		ingest(b, s, &f, obsAround("warm", 500, 100, 60, 7))
		corpus := freshChunk(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if j := i % chunk; j == 0 && i > 0 {
				b.StopTimer()
				corpus = freshChunk(i / chunk)
				b.StartTimer()
			}
			ingest(b, s, &f, corpus[i%chunk])
		}
		b.StopTimer()
		if f.State.Total != b.N+1 {
			b.Fatalf("state total %d after %d ingests", f.State.Total, b.N+1)
		}
	})

	b.Run("warm", func(b *testing.B) {
		e, s, f := newIngestSession(b)
		defer e.Close()
		o := obsAround("steady", 500, 100, 60, 42)
		ingest(b, s, &f, o)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ingest(b, s, &f, o)
		}
		b.StopTimer()
		if cc := e.CacheStats(); cc.VerdictHits == 0 {
			b.Fatal("no verdict-cache hits recorded")
		}
		if st := f.State; st.Total != b.N+1 || st.Infeasible != 0 {
			b.Fatalf("state %+v after %d ingests", st, b.N+1)
		}
	})
}

// BenchmarkVerdictCacheHit measures the content-addressed verdict cache's
// steady state: the same observation tested over and over against the
// same model, so after the first call every Test is a verdict-cache hit —
// region lookup, region content key, LP-hash memo hit, memoised verdict —
// with no LP built, hashed or solved in the timed loop.
func BenchmarkVerdictCacheHit(b *testing.B) {
	m := pdeModel(b)
	e := New(WithWorkers(1))
	defer e.Close()
	s, err := e.NewSession(m, Config{})
	if err != nil {
		b.Fatal(err)
	}
	o := obsAround("steady", 500, 100, 100, 42)
	if _, err := s.Test(context.Background(), o); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Test(context.Background(), o); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if cc := e.CacheStats(); cc.VerdictHits == 0 {
		b.Fatal("no verdict-cache hits recorded")
	}
}

// BenchmarkVerdictCacheHitEphemeral measures the cache hit path for
// request-scoped observations — the shape of every counterpointd request
// for content the daemon has seen before: each iteration tests a freshly
// decoded copy of the same observation, so the sample digest is
// recomputed, the region cache, the LP-hash memo and the verdict cache
// all hit, and no region or LP is built, hashed or solved. Copies are
// decoded outside the timer, in chunks.
func BenchmarkVerdictCacheHitEphemeral(b *testing.B) {
	const chunk = 1024
	m := pdeModel(b)
	e := New(WithWorkers(1))
	defer e.Close()
	s, err := e.NewSession(m, Config{})
	if err != nil {
		b.Fatal(err)
	}
	o := obsAround("steady", 500, 100, 100, 42)
	if _, err := s.Test(context.Background(), o); err != nil {
		b.Fatal(err)
	}
	hits := e.CacheStats().VerdictHits
	var copies []*counters.Observation
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%chunk == 0 {
			b.StopTimer()
			copies = decodedCopies(b, o, min(chunk, b.N-i))
			b.StartTimer()
		}
		if _, err := s.Test(context.Background(), copies[i%chunk]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := e.CacheStats().VerdictHits - hits; got != uint64(b.N) {
		b.Fatalf("%d verdict-cache hits over %d tests", got, b.N)
	}
}

// decodedCopies returns n independently JSON-decoded copies of o, as a
// service decodes a fresh *Observation per request.
func decodedCopies(t testing.TB, o *counters.Observation, n int) []*counters.Observation {
	t.Helper()
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*counters.Observation, n)
	for i := range out {
		out[i] = new(counters.Observation)
		if err := json.Unmarshal(data, out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
