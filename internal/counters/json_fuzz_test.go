package counters_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/counters"
	"repro/internal/stats"
)

// FuzzObservationJSON asserts the contract of the network decoder behind
// /test, /evaluate and stream ingest: malformed input returns an error,
// never a panic; an accepted observation has at least one event, no empty
// or duplicate event, and every row as wide as its set; MarshalJSON
// round-trips it bit for bit; and two decodes of the same bytes address
// the same confidence region.
func FuzzObservationJSON(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`null`,
		`{"label":"x","events":["a","b"],"samples":[[1,2],[3,4]]}`,
		`{"label":"t0","events":["load.causes_walk","load.pde$_miss"],"samples":[[10,2],[11,3]]}`,
		`{"events":["a"],"samples":null}`,
		`{"events":["a","a"],"samples":[[1,1]]}`,        // duplicate event
		`{"events":["a",""],"samples":[[1,1]]}`,         // empty event
		`{"events":[],"samples":[]}`,                    // no events
		`{"events":["a","b"],"samples":[[1]]}`,          // narrow row
		`{"events":["a"],"samples":[[1,2]]}`,            // wide row
		`{"events":["a"],"samples":[[-0],[5e-324]]}`,    // signed zero, subnormal
		`{"events":["a"],"samples":[[1e308],[-1e308]]}`, // huge magnitudes
		`{"events":["a"],"samples":[[0.1],[0.30000000000000004]]}`,
		"{\"label\":\"\xff\xfe\",\"events\":[\"a,b\",\"c\"],\"samples\":[[1,2]]}", // invalid UTF-8 label
		`{"events":["a"],"samples":[["1"]]}`,                                      // string sample
		`{"events":"a","samples":[[1]]}`,                                          // events not a list
		`{"events":["a"],"samples":[[1]],"events":["b"]}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var o counters.Observation
		if err := json.Unmarshal(data, &o); err != nil {
			return // rejected input only needs to not panic
		}
		n := o.Set.Len()
		if n == 0 {
			t.Fatal("accepted an observation with no events")
		}
		seen := map[counters.Event]bool{}
		for _, e := range o.Set.Events() {
			if e == "" || seen[e] {
				t.Fatalf("accepted event list %v", o.Set.Events())
			}
			seen[e] = true
		}
		for i, row := range o.Samples {
			if len(row) != n {
				t.Fatalf("accepted row %d of width %d over %d events", i, len(row), n)
			}
		}

		enc, err := json.Marshal(&o)
		if err != nil {
			t.Fatalf("accepted observation does not re-encode: %v", err)
		}
		var o2 counters.Observation
		if err := json.Unmarshal(enc, &o2); err != nil {
			t.Fatalf("re-encoded observation does not decode: %v\n%s", err, enc)
		}
		if o2.Label != o.Label || !o2.Set.Equal(o.Set) || len(o2.Samples) != len(o.Samples) {
			t.Fatalf("round trip changed the observation:\n%s", enc)
		}
		for i := range o.Samples {
			for j := range o.Samples[i] {
				if a, b := o.Samples[i][j], o2.Samples[i][j]; math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("sample (%d,%d) changed across the round trip: %v -> %v", i, j, a, b)
				}
			}
		}
		if enc2, err := json.Marshal(&o2); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", enc, enc2)
		}

		var again counters.Observation
		if err := json.Unmarshal(data, &again); err != nil {
			t.Fatalf("second decode of accepted bytes failed: %v", err)
		}
		var d1, d2 stats.RegionDigest
		for _, set := range []*counters.Set{nil, counters.NewSet(o.Set.At(n-1), "fuzz.absent")} {
			if d1.Key(&o, set, 0.99, stats.Correlated) != d2.Key(&again, set, 0.99, stats.Correlated) {
				t.Fatalf("two decodes of the same bytes digest differently onto %v", set)
			}
		}
	})
}
