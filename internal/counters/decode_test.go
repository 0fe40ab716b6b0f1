package counters_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/counters"
)

// corpusBody renders a corpus body of n observations over one events list
// of the given width, each with rows integer-valued samples, as a client
// encodes it.
func corpusBody(n, events, rows int) []byte {
	names := make([]counters.Event, events)
	for i := range names {
		names[i] = counters.Event(fmt.Sprintf("load.event_%02d", i))
	}
	set := counters.NewSet(names...)
	rng := rand.New(rand.NewSource(1))
	var c struct {
		Observations []*counters.Observation `json:"observations"`
	}
	for k := 0; k < n; k++ {
		o := counters.NewObservation(fmt.Sprintf("hot-%d", k), set)
		row := make([]float64, events)
		for r := 0; r < rows; r++ {
			for j := range row {
				row[j] = float64(rng.Intn(1 << 20))
			}
			o.Append(row)
		}
		c.Observations = append(c.Observations, o)
	}
	b, err := json.Marshal(c)
	if err != nil {
		panic(err)
	}
	return b
}

// BenchmarkCorpusDecode decodes an /evaluate body of the shape a hot
// client sends: 16 observations of 12 integer samples over the same 26
// events.
func BenchmarkCorpusDecode(b *testing.B) {
	body := corpusBody(16, 26, 12)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := counters.DecodeCorpusBody(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusDecodeJSON is BenchmarkCorpusDecode through the
// encoding/json reference, the decode the one-pass decoder replaced.
func BenchmarkCorpusDecodeJSON(b *testing.B) {
	body := corpusBody(16, 26, 12)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		var c refCorpus
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&c); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeAllocsPerObservation pins the decoder's allocation profile:
// each further observation in a body costs the same few allocations
// whether it has 12 or 48 samples and 26 or 52 events, since rows share
// one backing array and a repeated events list shares one set.
func TestDecodeAllocsPerObservation(t *testing.T) {
	const k = 16
	marginal := func(events, rows int) float64 {
		one, two := corpusBody(k, events, rows), corpusBody(2*k, events, rows)
		a1 := testing.AllocsPerRun(50, func() { counters.DecodeCorpusBody(one) })
		a2 := testing.AllocsPerRun(50, func() { counters.DecodeCorpusBody(two) })
		return (a2 - a1) / k
	}
	base := marginal(26, 12)
	if base > 4 {
		t.Errorf("%.2f allocations per observation, want at most 4 (observation, label, rows, backing array)", base)
	}
	for _, shape := range [][2]int{{26, 48}, {52, 12}, {52, 48}} {
		if got := marginal(shape[0], shape[1]); got > base+0.25 {
			t.Errorf("%d events x %d samples: %.2f allocations per observation, %.2f at 26 x 12", shape[0], shape[1], got, base)
		}
	}
}

// TestDecodedRowsAreWindows checks that decoded rows share one backing
// array per observation without aliasing: appending to a row reallocates
// it rather than overwriting the next row.
func TestDecodedRowsAreWindows(t *testing.T) {
	o, err := counters.DecodeObservation([]byte(`{"label":"w","events":["a","b"],"samples":[[1,2],[3,4],[5,6]]}`))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range o.Samples {
		if cap(row) != len(row) {
			t.Fatalf("row %d has capacity %d beyond its %d values", i, cap(row), len(row))
		}
	}
	_ = append(o.Samples[0], 99)
	if o.Samples[1][0] != 3 {
		t.Fatalf("appending to row 0 overwrote row 1: %v", o.Samples)
	}
}

// TestCorpusSharesEventSets checks that observations whose events lists
// are byte-identical share one set, and different lists do not.
func TestCorpusSharesEventSets(t *testing.T) {
	corpus, err := counters.DecodeCorpusBody([]byte(`{"observations":[
		{"events":["a","b"],"samples":[[1,2]]},
		{"events":["a","b"],"samples":[[3,4]]},
		{"events":["b","a"],"samples":[[5,6]]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if corpus[0].Set != corpus[1].Set {
		t.Error("identical events lists decoded to two sets")
	}
	if corpus[1].Set == corpus[2].Set || corpus[2].Set.At(0) != "b" {
		t.Errorf("a different events list reused the previous set: %v", corpus[2].Set)
	}
}

// TestDecodeDepthLimit checks the decoder keeps encoding/json's nesting
// limit of 10000, inside a skipped unknown value and at the corpus level.
func TestDecodeDepthLimit(t *testing.T) {
	// An observation nests n+1 deep, and n+3 inside a corpus body, so the
	// limit falls between 9999 and 10000 alone and between 9997 and 9998
	// in a corpus.
	for _, n := range []int{9997, 9998, 9999, 10000} {
		nested := strings.Repeat("[", n) + strings.Repeat("]", n)
		obs := `{"x":` + nested + `,"events":["a"],"samples":[[1]]}`
		_, err := counters.DecodeObservation([]byte(obs))
		var ref refObservation
		if refErr := json.Unmarshal([]byte(obs), &ref); (err == nil) != (refErr == nil) {
			t.Errorf("observation nesting %d: decoder error %v, encoding/json error %v", n+1, err, refErr)
		}
		body := `{"observations":[` + obs + `]}`
		_, err = counters.DecodeCorpusBody([]byte(body))
		var refC refCorpus
		if refErr := json.NewDecoder(strings.NewReader(body)).Decode(&refC); (err == nil) != (refErr == nil) {
			t.Errorf("corpus nesting %d: decoder error %v, encoding/json error %v", n+3, err, refErr)
		}
	}
}

// TestDecodeCopiesOutOfInput checks that nothing decoded aliases the
// input bytes, so a caller may reuse its buffer once the body is
// decoded.
func TestDecodeCopiesOutOfInput(t *testing.T) {
	data := []byte(`{"observations":[{"label":"plain","events":["a","bé"],"samples":[[1,2]]},
		{"label":"esc\u0041ped","events":["a","b\u00e9"],"samples":[[3,4]]}]}`)
	corpus, err := counters.DecodeCorpusBody(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'x'
	}
	if corpus[0].Label != "plain" || corpus[1].Label != "escAped" ||
		corpus[1].Set.String() != "a,bé" || corpus[1].Samples[0][1] != 4 {
		t.Fatalf("decoded values changed with the input buffer: %q %q %v %v",
			corpus[0].Label, corpus[1].Label, corpus[1].Set, corpus[1].Samples)
	}
}

// TestDecodeConcurrent decodes different bodies from several goroutines
// at once: pooled decoder scratch must never be shared between decodes.
func TestDecodeConcurrent(t *testing.T) {
	bodies := [][]byte{corpusBody(4, 3, 5), corpusBody(6, 7, 2), corpusBody(2, 26, 12), corpusBody(5, 1, 9)}
	want := make([][]*counters.Observation, len(bodies))
	for i, b := range bodies {
		var err error
		if want[i], err = counters.DecodeCorpusBody(b); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (g + n) % len(bodies)
				got, err := counters.DecodeCorpusBody(bodies[i])
				if err != nil {
					t.Error(err)
					return
				}
				for k, o := range got {
					w := want[i][k]
					if o.Label != w.Label || !o.Set.Equal(w.Set) || fmt.Sprint(o.Samples) != fmt.Sprint(w.Samples) {
						t.Errorf("body %d observation %d decoded differently under concurrency", i, k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
