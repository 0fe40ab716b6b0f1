package mudd

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/counters"
)

// randomDiagram builds a random well-formed μDD: a chain of counter, event
// and decision nodes where every decision branch rejoins the chain or ends.
func randomDiagram(rng *rand.Rand, name string, events []counters.Event) *Diagram {
	d := New(name)
	cur := d.StartNode()
	depth := rng.Intn(5) + 1
	for i := 0; i < depth; i++ {
		switch rng.Intn(3) {
		case 0:
			n := d.AddCounter(events[rng.Intn(len(events))])
			d.Link(cur, n)
			cur = n
		case 1:
			n := d.AddEvent(fmt.Sprintf("e%d", i))
			d.Link(cur, n)
			cur = n
		default:
			dec := d.AddDecision(fmt.Sprintf("P%d", i))
			d.Link(cur, dec)
			// Branch A: a counter that rejoins; branch B: early end.
			a := d.AddCounter(events[rng.Intn(len(events))])
			d.LinkValue(dec, a, "A")
			bEnd := d.AddEnd()
			d.LinkValue(dec, bEnd, "B")
			cur = a
		}
	}
	end := d.AddEnd()
	d.Link(cur, end)
	return d
}

// TestRandomDiagramsValidateAndEnumerate: every randomly built diagram is
// valid, enumerates ≥1 μpath, and each path's signature has non-negative
// integer entries bounded by the path length.
func TestRandomDiagramsValidateAndEnumerate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	events := []counters.Event{"x", "y", "z"}
	set := counters.NewSet(events...)
	for trial := 0; trial < 100; trial++ {
		d := randomDiagram(rng, fmt.Sprintf("rand%d", trial), events)
		if err := d.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		paths, err := d.Paths()
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatalf("trial %d: no μpaths", trial)
		}
		for _, p := range paths {
			sig := d.Signature(p, set)
			total := int64(0)
			if sig.Den != 1 {
				t.Fatalf("trial %d: signature denominator %d", trial, sig.Den)
			}
			for _, x := range sig.Num {
				if x < 0 {
					t.Fatalf("trial %d: bad signature entry %d", trial, x)
				}
				total += x
			}
			if total > int64(len(p.Nodes)) {
				t.Fatalf("trial %d: signature total %d exceeds path length %d",
					trial, total, len(p.Nodes))
			}
		}
	}
}

// TestMergePathUnion: the merged diagram's μpath signature multiset is the
// union of its inputs' (the model-cone additivity Merge relies on).
func TestMergePathUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	events := []counters.Event{"x", "y"}
	set := counters.NewSet(events...)
	for trial := 0; trial < 40; trial++ {
		a := randomDiagram(rng, "A", events)
		b := randomDiagram(rng, "B", events)
		m := Merge("AB", a, b)
		if err := m.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		count := func(d *Diagram) map[string]int {
			out := map[string]int{}
			paths, err := d.Paths()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range paths {
				out[d.Signature(p, set).Key()]++
			}
			return out
		}
		ca, cb, cm := count(a), count(b), count(m)
		for k, v := range ca {
			cb[k] += v
		}
		if len(cb) != len(cm) {
			t.Fatalf("trial %d: signature multisets differ: %v vs %v", trial, cb, cm)
		}
		for k, v := range cb {
			if cm[k] != v {
				t.Fatalf("trial %d: multiset differs at %s: %d vs %d", trial, k, v, cm[k])
			}
		}
	}
}

// TestSignaturesMatchPaths: Signatures walks the diagram without building
// paths, and must return exactly Signature of each of Paths, in order —
// on random diagrams, their merge, and a diagram whose property is
// decided twice (the second decision follows the first's value) over a
// set that leaves one of its counters out.
func TestSignaturesMatchPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	events := []counters.Event{"x", "y", "z"}
	var ds []*Diagram
	for trial := 0; trial < 40; trial++ {
		ds = append(ds, randomDiagram(rng, fmt.Sprintf("rand%d", trial), events))
	}
	ds = append(ds, Merge("merged", ds[:4]...))
	rep := New("repeat")
	d1 := rep.AddDecision("P")
	rep.Link(rep.StartNode(), d1)
	a, b := rep.AddCounter("x"), rep.AddCounter("w")
	rep.LinkValue(d1, a, "A")
	rep.LinkValue(d1, b, "B")
	d2 := rep.AddDecision("P")
	rep.Link(a, d2)
	rep.Link(b, d2)
	c, e := rep.AddCounter("y"), rep.AddCounter("x")
	rep.LinkValue(d2, c, "A")
	rep.LinkValue(d2, e, "B")
	end := rep.AddEnd()
	rep.Link(c, end)
	rep.Link(e, end)
	ds = append(ds, rep)

	set := counters.NewSet("x", "y", "z")
	for _, d := range ds {
		paths, err := d.Paths()
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		sigs, err := d.Signatures(set)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if len(sigs) != len(paths) {
			t.Fatalf("%s: %d signatures for %d paths", d.Name, len(sigs), len(paths))
		}
		for i, p := range paths {
			if got, want := sigs[i].Key(), d.Signature(p, set).Key(); got != want {
				t.Fatalf("%s: signature %d is %s, Signature of path %d is %s", d.Name, i, got, i, want)
			}
		}
	}
	if sigs, _ := rep.Signatures(set); len(sigs) != 2 || sigs[0].Key() != "1|1|0" || sigs[1].Key() != "1|0|0" {
		t.Fatalf("repeated decision: signatures %v, want [1|1|0 1|0|0]", sigs)
	}
}
