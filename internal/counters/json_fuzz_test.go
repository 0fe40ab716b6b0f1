package counters_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/counters"
	"repro/internal/stats"
)

// refObservation is the encoding/json reference for the one-pass decoder,
// and the decode it replaced: json.Unmarshal into the wire struct, then
// the validation Observation.UnmarshalJSON documents.
type refObservation struct {
	Label   string
	Set     *counters.Set
	Samples [][]float64
}

func (r *refObservation) UnmarshalJSON(data []byte) error {
	var w counters.ObservationJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if len(w.Events) == 0 {
		return fmt.Errorf("no events")
	}
	for _, e := range w.Events {
		if e == "" {
			return fmt.Errorf("empty event name")
		}
	}
	set := counters.NewSet(w.Events...)
	if set.Len() != len(w.Events) {
		return fmt.Errorf("duplicate events")
	}
	for i, row := range w.Samples {
		if len(row) != set.Len() {
			return fmt.Errorf("sample %d has %d values", i, len(row))
		}
	}
	r.Label, r.Set, r.Samples = w.Label, set, w.Samples
	return nil
}

// refCorpus is the reference corpus body, decoded as a request body is.
type refCorpus struct {
	Observations []*refObservation `json:"observations"`
}

// sameAsRef fails t unless o decoded to exactly the reference: label,
// events, the nil-ness of the sample list and of each row, and every
// sample bit for bit.
func sameAsRef(t *testing.T, o *counters.Observation, ref *refObservation) {
	t.Helper()
	if o.Label != ref.Label {
		t.Fatalf("label %q, reference %q", o.Label, ref.Label)
	}
	if !o.Set.Equal(ref.Set) {
		t.Fatalf("events %q, reference %q", o.Set.Events(), ref.Set.Events())
	}
	if (o.Samples == nil) != (ref.Samples == nil) || len(o.Samples) != len(ref.Samples) {
		t.Fatalf("samples %v, reference %v", o.Samples, ref.Samples)
	}
	for i, row := range ref.Samples {
		if len(o.Samples[i]) != len(row) {
			t.Fatalf("row %d %v, reference %v", i, o.Samples[i], row)
		}
		for j, v := range row {
			if got := o.Samples[i][j]; math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("sample (%d,%d) = %v (%#x), reference %v (%#x)", i, j, got, math.Float64bits(got), v, math.Float64bits(v))
			}
		}
	}
}

// decodeSeeds are the wire-form corner cases both fuzz targets start from.
var decodeSeeds = []string{
	``,
	`{}`,
	`null`,
	`{"label":"x","events":["a","b"],"samples":[[1,2],[3,4]]}`,
	`{"label":"t0","events":["load.causes_walk","load.pde$_miss"],"samples":[[10,2],[11,3]]}`,
	`{"events":["a"],"samples":null}`,
	`{"events":["a"],"samples":[]}`,
	`{"events":["a","a"],"samples":[[1,1]]}`,        // duplicate event
	`{"events":["a",""],"samples":[[1,1]]}`,         // empty event
	`{"events":[],"samples":[]}`,                    // no events
	`{"events":["a","b"],"samples":[[1]]}`,          // narrow row
	`{"events":["a"],"samples":[[1,2]]}`,            // wide row
	`{"events":["a"],"samples":[[-0],[5e-324]]}`,    // signed zero, subnormal
	`{"events":["a"],"samples":[[1e308],[-1e308]]}`, // huge magnitudes
	`{"events":["a"],"samples":[[0.1],[0.30000000000000004]]}`,
	"{\"label\":\"\xff\xfe\",\"events\":[\"a,b\",\"c\"],\"samples\":[[1,2]]}", // invalid UTF-8 label
	"{\"events\":[\"\xed\xa0\x80\",\"\xc3\"],\"samples\":[[1,2]]}",            // surrogate and truncated UTF-8 names
	`{"events":["a"],"samples":[["1"]]}`,                                      // string sample
	`{"events":"a","samples":[[1]]}`,                                          // events not a list
	`{"events":["a"],"samples":[[1]],"events":["b"]}`,                         // duplicate key, last wins
	`{"LABEL":"up","Events":["a"],"ſamples":[[1]]}`,                           // case-folded keys
	`{"label":"x","extra":{"deep":[1,{"k":null}],"n":1e400},"events":["a"],"samples":[[1]]}`,
	`{"label":"x","extra":[1,],"events":["a"],"samples":[[1]]}`, // invalid unknown value
	`{"label":"x","label":null,"events":["a"],"samples":[[1]]}`, // null keeps the label
	`{"events":["a","b"],"events":["c",null],"samples":[[1,2]]}`,
	`{"events":["a","b","c"],"events":["x"],"events":[null,null,null],"samples":[[1,2,3]]}`,
	`{"events":["a"],"samples":[[5],[6]],"samples":[[null],[7]]}`,
	`{"events":["a","b"],"samples":[[1,2,3,4,5]],"samples":[[9]],"samples":[[null,null]]}`,
	`{"events":["a"],"samples":[[1]],"samples":null,"samples":[[null]]}`,
	`{"events":["a"],"samples":[[1]],"samples":[],"samples":[[null]]}`,
	`{"events":["a"],"samples":[null]}`,
	`{"events":["a"],"samples":[[null]]}`,
	`{"label":"é😀\ud800A\udc00x\"\\\/\b\f\n\r\t","events":["a"],"samples":[[1]]}`,
	`{"events":["a"],"samples":[[-0],[0],[-0.0],[0e5]]}`,
	`{"events":["a"],"samples":[[1e400]]}`,
	`{"events":["a"],"samples":[[-1e400]]}`,
	`{"events":["a"],"samples":[[1e-400]]}`,
	`{"events":["a"],"samples":[[01]]}`,
	`{"events":["a"],"samples":[[1.]]}`,
	`{"events":["a"],"samples":[[.5]]}`,
	`{"events":["a"],"samples":[[+1]]}`,
	`{"events":["a"],"samples":[[-]]}`,
	`{"events":["a"],"samples":[[1e]]}`,
	`{"events":["a"],"samples":[[9007199254740991],[9007199254740992],[9007199254740993],[-9007199254740993]]}`,
	`{"events":["a"],"samples":[[12345678901234567890],[1E+2],[2.5e-3]]}`,
	`{"events":["a"],"samples":[[true]]}`,
	`{"events":["a"],"samples":[[1]]} `,
	`{"events":["a"],"samples":[[1]]}x`,
	`{"events":["a"],"samples":[[1]]}{}`,
	` {"events" : [ "a" ] , "samples" : [ [ 1 ] ] } `,
	`{"events":["a"],"samples":[[1]]`,
	`{"events":["a"],"samples":[[1]],}`,
	"{\"events\":[\"a\tb\"],\"samples\":[[1]]}", // raw control character
	`{"events":["a\x"],"samples":[[1]]}`,        // bad escape
	`{"events":["a\u12"],"samples":[[1]]}`,      // short \u escape
	`[{"events":["a"],"samples":[[1]]}]`,
	`"observation"`,
	`nul`,
}

// FuzzObservationJSON holds the one-pass decoder behind /test and stream
// ingest to encoding/json: on every input DecodeObservation and
// json.Unmarshal, and DecodeObservationBody and json.Decoder.Decode, make
// the same accept or reject decision and accept the same label, events
// and sample bits. It also asserts the decoder's contract:
// an accepted observation has at least one event, no empty or duplicate
// event, and every row as wide as its set; MarshalJSON round-trips it bit
// for bit; and two decodes of the same bytes address the same confidence
// region.
func FuzzObservationJSON(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := counters.DecodeObservation(data)
		var ref refObservation
		refErr := json.Unmarshal(data, &ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder error %v, encoding/json error %v", err, refErr)
		}
		var viaJSON counters.Observation
		if jsonErr := json.Unmarshal(data, &viaJSON); (jsonErr == nil) != (err == nil) {
			t.Fatalf("UnmarshalJSON error %v, decoder error %v", jsonErr, err)
		}
		body, bodyErr := counters.DecodeObservationBody(data)
		var refBody refObservation
		refBodyErr := json.NewDecoder(bytes.NewReader(data)).Decode(&refBody)
		if (bodyErr == nil) != (refBodyErr == nil) {
			t.Fatalf("body decoder error %v, json.Decoder error %v", bodyErr, refBodyErr)
		}
		if bodyErr == nil {
			sameAsRef(t, body, &refBody)
		}
		if err != nil {
			return // rejected input only needs to not panic
		}
		sameAsRef(t, o, &ref)
		sameAsRef(t, &viaJSON, &ref)

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

		enc, err := json.Marshal(o)
		if err != nil {
			t.Fatalf("accepted observation does not re-encode: %v", err)
		}
		o2, err := counters.DecodeObservation(enc)
		if err != nil {
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
		if enc2, err := json.Marshal(o2); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", enc, enc2)
		}

		again, err := counters.DecodeObservation(data)
		if err != nil {
			t.Fatalf("second decode of accepted bytes failed: %v", err)
		}
		var d1, d2 stats.RegionDigest
		for _, set := range []*counters.Set{nil, counters.NewSet(o.Set.At(n-1), "fuzz.absent")} {
			if d1.Key(o, set, 0.99, stats.Correlated) != d2.Key(again, set, 0.99, stats.Correlated) {
				t.Fatalf("two decodes of the same bytes digest differently onto %v", set)
			}
		}
	})
}

// FuzzCorpusJSON holds DecodeCorpusBody, the /evaluate body decoder, to
// json.NewDecoder(...).Decode over the same bytes: the same accept or
// reject decision, the same number of observations, null elements in the
// same places, and each observation identical to the reference. Bytes
// after the body's first value are ignored by both.
func FuzzCorpusJSON(f *testing.F) {
	corpusSeeds := []string{
		`{"observations":null}`,
		`{"observations":[]}`,
		`{"observations":[null]}`,
		`{"observations":[{"events":["a"],"samples":[[1]]},null,{"events":["a"],"samples":[[2]]}]}`,
		`{"observations":[{"events":["a","b"],"samples":[[1,2]]},{"events":["a","b"],"samples":[[3,4]]},{"events":["b","a"],"samples":[[5,6]]}]}`,
		`{"observations":[{"events":["a"],"samples":[[1]]}]} trailing`,
		`{"observations":[{"events":["a"],"samples":[[1]]}]}{"observations":5}`,
		`null trailing`,
		`{"observations":[{"events":["a"],"samples":[[1]]}],"observations":[{"events":["b"],"samples":[[2]]}]}`,
		`{"OBSERVATIONS":[{"events":["a"],"samples":[[1]]}],"other":[1,2,{}]}`,
		`{"observations":[{"events":["a"],"samples":[[1]]},5]}`,
		`{"observations":[{"events":[],"samples":[]}]}`,
		`{"observations":{}}`,
		`{"observations":[{"events":["a"],"samples":[[1]]}`,
		`[]`,
		`5`,
		``,
	}
	for _, s := range corpusSeeds {
		f.Add([]byte(s))
	}
	for _, s := range decodeSeeds {
		f.Add([]byte(`{"observations":[` + s + `]}`))
		f.Add([]byte(`{"observations":[` + s + `,` + s + `]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := counters.DecodeCorpusBody(data)
		var ref refCorpus
		refErr := json.NewDecoder(bytes.NewReader(data)).Decode(&ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoder error %v, encoding/json error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if (got == nil) != (ref.Observations == nil) || len(got) != len(ref.Observations) {
			t.Fatalf("decoded %d observations (nil %v), reference %d (nil %v)",
				len(got), got == nil, len(ref.Observations), ref.Observations == nil)
		}
		for i, want := range ref.Observations {
			if (got[i] == nil) != (want == nil) {
				t.Fatalf("observation %d: nil %v, reference nil %v", i, got[i] == nil, want == nil)
			}
			if want != nil {
				sameAsRef(t, got[i], want)
			}
		}
	})
}
