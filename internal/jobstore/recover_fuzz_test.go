package jobstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultfs"
	"repro/internal/jobs"
	"repro/internal/recordlog"
)

// FuzzRecover feeds journal recovery well-framed hostile payloads: every
// frame carries a valid CRC, so nothing is cut as a torn tail and each
// payload reaches the record decoders, the rebuilders and the manager.
// The input is one record per line, the first byte the record type and
// the rest its payload. Open, Snapshot and Recover must not panic; after
// Recover every job the manager lists is terminal or a continuation
// Recover started; and once the manager and store close, a reopened
// journal holds no job in flight, so a second restart resumes nothing
// twice.
func FuzzRecover(f *testing.F) {
	for _, seed := range recoverSeeds(f) {
		f.Add(seed)
	}
	eng := engine.New(engine.WithWorkers(1))
	f.Cleanup(eng.Close)
	rebuild := fuzzRebuilders(eng)
	f.Fuzz(func(t *testing.T, data []byte) {
		mem := faultfs.NewMem()
		log, _, err := recordlog.Open(mem, "jobs.db", func(byte, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(line) > 0 {
				if err := log.Append(line[0], line[1:], false); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}

		st, err := Open("jobs.db", Options{FS: mem})
		if err != nil {
			t.Fatalf("Open on CRC-valid frames: %v", err)
		}
		snap := st.Snapshot()
		m := jobs.NewManager(jobs.Options{Journal: st})
		rep, err := Recover(m, st, rebuild)
		if err != nil {
			t.Fatalf("Recover: %v", err)
		}
		if rep.Relisted+rep.Interrupted > len(snap) || rep.Resumed > rep.Interrupted {
			t.Fatalf("report %+v for %d journaled jobs", rep, len(snap))
		}
		continuations := 0
		for _, s := range m.List() {
			switch {
			case s.Restored && !s.State.Terminal():
				t.Fatalf("recovered job %s is %s", s.ID, s.State)
			case !s.Restored:
				continuations++
				if s.ResumedFrom == "" {
					t.Fatalf("job %s neither recovered nor resumed", s.ID)
				}
			}
		}
		if continuations > rep.Resumed {
			t.Fatalf("%d continuations listed, %d reported resumed", continuations, rep.Resumed)
		}
		m.Close()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		again, err := Open("jobs.db", Options{FS: mem})
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer again.Close()
		for _, rj := range again.Snapshot() {
			if !rj.Terminal {
				t.Fatalf("job %s still in flight after recovery and shutdown", rj.ID)
			}
		}
	})
}

// fuzzRebuilders are the built-in rebuilders, refusing the specs whose
// resumed run would cost an iteration seconds: sweep grids over 64 cells
// (the server caps a submitted grid with -max-sweep-cells) and catalogue
// explorations without observations, which simulate their own corpus.
func fuzzRebuilders(eng *engine.Engine) map[string]Rebuilder {
	sweep, explore := jobs.RebuildSweep(eng), jobs.RebuildExplore()
	return map[string]Rebuilder{
		"sweep": func(spec, cp []byte) (any, any, error) {
			s, c, err := sweep(spec, cp)
			if err == nil && s.(jobs.SweepSpec).Grid.Size() > 64 {
				return nil, nil, errors.New("grid too large to resume in a fuzz iteration")
			}
			return s, c, err
		},
		"explore": func(spec, cp []byte) (any, any, error) {
			s, c, err := explore(spec, cp)
			if err == nil && len(s.(jobs.ExploreSpec).Corpus) == 0 {
				return nil, nil, errors.New("simulated corpus too slow to resume in a fuzz iteration")
			}
			return s, c, err
		},
	}
}

// recoverSeeds writes journals the store writes: a finished sweep, an
// interrupted sweep and an interrupted exploration (both resumed), a
// removed job, and records no job owns, of an unknown type, with a
// non-terminal terminal state, or not JSON at all.
func recoverSeeds(f *testing.F) [][]byte {
	t0 := time.Unix(1700000000, 0).UTC()
	rec := func(typ byte, v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return append([]byte{typ}, b...)
	}
	journal := func(recs ...[]byte) []byte { return bytes.Join(recs, []byte("\n")) }
	sweepWire, _ := sweepSpec(nil).DurableSpec()
	sweepJSON, _ := json.Marshal(sweepWire)
	exploreWire := jobs.ExploreWire{
		Source:       "do LookupPde$;\nswitch Pde$Status { Hit => pass; Miss => incr load.pde$_miss; };\n#if walk\nincr load.causes_walk;\n#endif\ndone;",
		Candidates:   []string{"walk"},
		Observations: sweepBase(),
	}
	exploreJSON, _ := json.Marshal(exploreWire)
	cellsJSON, _ := json.Marshal([]jobs.SweepCell{{Index: 0, Code: "0x142", Event: 0x42, Umask: 0x01, Sig: "c3", Infeasible: 2}})
	return [][]byte{
		journal(
			rec(recSpec, specRecord{ID: "j000001", Kind: "sweep", Created: t0, Spec: sweepJSON}),
			rec(recEvent, eventRecord{ID: "j000001", Seq: 0, Kind: "planned", Data: json.RawMessage(`{"count":12}`)}),
			rec(recCheckpoint, checkpointRecord{ID: "j000001", Checkpoint: json.RawMessage(`[]`)}),
			rec(recTerminal, terminalRecord{ID: "j000001", State: jobs.StateDone, Result: json.RawMessage(`{}`), Finished: t0}),
		),
		journal(
			rec(recSpec, specRecord{ID: "j000002", Kind: "sweep", Created: t0, Spec: sweepJSON}),
			rec(recEvent, eventRecord{ID: "j000002", Seq: 0, Kind: "cell", Data: json.RawMessage(`{"index":0}`)}),
			rec(recCheckpoint, checkpointRecord{ID: "j000002", Checkpoint: cellsJSON}),
		),
		journal(
			rec(recSpec, specRecord{ID: "j000003", Kind: "explore", Created: t0, Spec: exploreJSON}),
			rec(recCheckpoint, checkpointRecord{ID: "j000003", Checkpoint: json.RawMessage(`[]`)}),
		),
		journal(
			rec(recSpec, specRecord{ID: "j000004", Kind: "sweep", Created: t0, Spec: sweepJSON}),
			rec(recRemove, removeRecord{ID: "j000004"}),
			rec(recEvent, eventRecord{ID: "j000009", Kind: "orphan"}),
			append([]byte{0x7f}, `{"id":"j000004"}`...),
			rec(recSpec, specRecord{ID: "j000005", Kind: "sweep", Created: t0, Spec: json.RawMessage(`{"events":"Qg=="}`)}),
			rec(recTerminal, terminalRecord{ID: "j000005", State: jobs.StateRunning, Finished: t0}),
			append([]byte{recCheckpoint}, `not json`...),
		),
	}
}
