package jobs

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/explore"
	"repro/internal/sweep"
)

// The journal's spec decoders read bytes back from disk, so they must
// survive any input: FuzzRebuildSweep and FuzzRebuildExplore feed them
// arbitrary spec and checkpoint bytes, seeded with the bytes the journal
// writes (a spec's DurableSpec() and a checkpoint, each through
// json.Marshal as internal/jobstore encodes them). A decoder may reject
// its input but never panic, and a spec it accepts must re-encode through
// DurableSpec() and rebuild to a spec that journals to the same bytes.

// journalBytes encodes v the way the journal does.
func journalBytes(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func FuzzRebuildSweep(f *testing.F) {
	specs := []SweepSpec{
		{Grid: sweep.DefaultGrid(), Seed: 1, Samples: 8, UopsPerSample: 1500},
		{Grid: sweep.Grid{Events: []uint8{0xbc}, Umasks: []uint8{0x0f}, Cmasks: []uint8{0}},
			Base: testCorpus(), Confidence: 0.95, ForceExact: true, Workers: 2},
	}
	checkpoint := journalBytes(f, []SweepCell{
		{Index: 0, Code: "0x142", Event: 0x42, Umask: 0x01, Sig: "c3", Class: 0, Infeasible: 2},
		{Index: 1, Code: "0xfbc", Event: 0xbc, Umask: 0x0f, Sig: "ref", Class: 1, Feasible: 6, Consistent: true},
	})
	for _, s := range specs {
		w, _ := s.DurableSpec()
		spec := journalBytes(f, w)
		f.Add(spec, []byte(nil))
		f.Add(spec, checkpoint)
	}
	f.Add([]byte(`{"events":null}`), []byte(`[{"index":-1}]`))
	rebuild := RebuildSweep(nil)
	f.Fuzz(func(t *testing.T, spec, checkpoint []byte) {
		got, cp, err := rebuild(spec, checkpoint)
		if err != nil {
			return
		}
		s := got.(SweepSpec)
		if len(checkpoint) > 0 {
			if _, ok := cp.([]SweepCell); !ok {
				t.Fatalf("checkpoint decoded to %T", cp)
			}
		}
		again := roundTrip(t, s, rebuild).(SweepSpec)
		if again.Grid.Size() != s.Grid.Size() || again.Seed != s.Seed || again.Confidence != s.Confidence {
			t.Fatalf("spec changed across a journal round trip:\n%+v\n%+v", s, again)
		}
	})
}

func FuzzRebuildExplore(f *testing.F) {
	const template = `
do LookupPde$;
switch Pde$Status {
    Hit  => pass;
    Miss => {
        incr load.pde$_miss;
#if abort
        switch Abort { Yes => done; No => pass; };
#endif
    };
};
incr load.causes_walk;
done;
`
	wires := []ExploreWire{
		{Source: template, Observations: testCorpus(), IdentifyViolations: true},
		{Catalog: CatalogHaswellMMU, Initial: []string{"pml4e"}, Confidence: 0.99, Workers: 2},
	}
	checkpoint := journalBytes(f, []*explore.Node{
		{Features: explore.NewFeatureSet(), Infeasible: 1, Total: 2, Op: explore.OpInitial},
		{Features: explore.NewFeatureSet("abort"), Total: 2, Violated: map[string]int{"c0": 1},
			DerivedFrom: "", Op: explore.OpDiscovery},
	})
	for _, w := range wires {
		s, _, err := w.Build()
		if err != nil {
			f.Fatal(err)
		}
		d, _ := s.DurableSpec()
		spec := journalBytes(f, d)
		f.Add(spec, []byte(nil))
		f.Add(spec, checkpoint)
	}
	f.Add([]byte(`{"source":"#if f\ndone;"}`), []byte(`[null]`))
	rebuild := RebuildExplore()
	f.Fuzz(func(t *testing.T, spec, checkpoint []byte) {
		got, cp, err := rebuild(spec, checkpoint)
		if err != nil {
			return
		}
		s := got.(ExploreSpec)
		if len(checkpoint) > 0 {
			if _, ok := cp.([]*explore.Node); !ok {
				t.Fatalf("checkpoint decoded to %T", cp)
			}
		}
		again := roundTrip(t, s, rebuild).(ExploreSpec)
		if (again.Builder == nil) != (s.Builder == nil) || (again.CorpusFunc == nil) != (s.CorpusFunc == nil) ||
			!slices.Equal(again.Candidates, s.Candidates) || len(again.Corpus) != len(s.Corpus) {
			t.Fatalf("spec changed across a journal round trip:\n%+v\n%+v", s, again)
		}
	})
}

// roundTrip journals spec's DurableSpec(), rebuilds it and returns the
// rebuilt spec. The rebuilt spec must journal to the same bytes: a spec
// is a pure function of its wire form, so equal bytes mean an equal spec
// as far as the job can tell (an empty and a nil list, which the wire
// form does not tell apart, run the same job).
func roundTrip(t *testing.T, spec interface{ DurableSpec() (any, bool) }, rebuild func(spec, checkpoint []byte) (any, any, error)) any {
	t.Helper()
	w, ok := spec.DurableSpec()
	if !ok {
		t.Fatalf("a rebuilt %T is not durable", spec)
	}
	first := journalBytes(t, w)
	again, _, err := rebuild(first, nil)
	if err != nil {
		t.Fatalf("re-encoded spec rejected: %v\n%s", err, first)
	}
	w2, _ := again.(interface{ DurableSpec() (any, bool) }).DurableSpec()
	if second := journalBytes(t, w2); !bytes.Equal(first, second) {
		t.Fatalf("spec changed across a journal round trip:\n%s\n%s", first, second)
	}
	return again
}
