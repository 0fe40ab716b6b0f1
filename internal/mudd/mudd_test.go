package mudd

import (
	"strings"
	"testing"

	"repro/internal/counters"
	"repro/internal/exact"
)

// figure4a builds the μDD of Figure 4a: STLB lookup; on miss, PDE$ lookup
// increments load.causes_walk; PDE$ miss increments load.pde$_miss and
// walks 2+ levels, PDE$ hit walks 1 level.
func figure4a() *Diagram {
	d := New("fig4a")
	stlb := d.AddDecision("StlbStatus")
	d.Link(d.StartNode(), stlb)
	endHit := d.AddEnd()
	d.LinkValue(stlb, endHit, "Hit")

	lookup := d.AddEvent("LookupPDE$")
	d.LinkValue(stlb, lookup, "Miss")
	cw := d.AddCounter("load.causes_walk")
	d.Link(lookup, cw)
	pde := d.AddDecision("Pde$Status")
	d.Link(cw, pde)

	onelevel := d.AddEvent("1 level walk")
	d.LinkValue(pde, onelevel, "Hit")
	init1 := d.AddEvent("InitializePTW")
	d.Link(onelevel, init1)
	end1 := d.AddEnd()
	d.Link(init1, end1)

	miss := d.AddCounter("load.pde$_miss")
	d.LinkValue(pde, miss, "Miss")
	two := d.AddEvent("2+ level walk")
	d.Link(miss, two)
	init2 := d.AddEvent("InitializePTW")
	d.Link(two, init2)
	end2 := d.AddEnd()
	d.Link(init2, end2)

	d.HappensBefore(lookup, cw)
	return d
}

func TestFigure4aPaths(t *testing.T) {
	d := figure4a()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	paths, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("got %d μpaths, want 3 (Figure 4b)", len(paths))
	}
	set := d.Counters()
	if set.Len() != 2 {
		t.Fatalf("counters: %v", set.Events())
	}
	// Collect signatures as strings for set comparison.
	got := map[string]bool{}
	for _, p := range paths {
		sig := d.Signature(p, set)
		got[sig.Vec().Key()] = true
	}
	for _, want := range []string{"0|0", "1|0", "1|1"} {
		if !got[want] {
			t.Fatalf("missing signature %s; got %v", want, got)
		}
	}
}

func TestPropertyConsistency(t *testing.T) {
	// Two decisions on the same property must take consistent branches:
	// only 2 paths, not 4.
	d := New("consistent")
	d1 := d.AddDecision("P")
	d.Link(d.StartNode(), d1)
	c1 := d.AddCounter("a")
	d.LinkValue(d1, c1, "yes")
	mid := d.AddEvent("mid")
	d.LinkValue(d1, mid, "no")
	d2 := d.AddDecision("P")
	d.Link(c1, d2)
	d.Link(mid, d2)
	cy := d.AddCounter("b")
	d.LinkValue(d2, cy, "yes")
	end1 := d.AddEnd()
	d.Link(cy, end1)
	end2 := d.AddEnd()
	d.LinkValue(d2, end2, "no")

	paths, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	set := d.Counters()
	keys := map[string]bool{}
	for _, p := range paths {
		keys[d.Signature(p, set).Vec().Key()] = true
	}
	// yes-branch: a then b; no-branch: neither.
	if !keys["1|1"] || !keys["0|0"] {
		t.Fatalf("signatures: %v", keys)
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	d := New("cycle")
	a := d.AddEvent("a")
	b := d.AddEvent("b")
	d.Link(d.StartNode(), a)
	d.Link(a, b)
	d.Link(b, a)
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("want cycle error, got %v", err)
	}
}

func TestValidateCatchesDeadEnd(t *testing.T) {
	d := New("dead")
	a := d.AddEvent("a")
	d.Link(d.StartNode(), a)
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "dead end") {
		t.Fatalf("want dead end error, got %v", err)
	}
}

func TestValidateCatchesUnreachable(t *testing.T) {
	d := New("unreach")
	end := d.AddEnd()
	d.Link(d.StartNode(), end)
	orphan := d.AddEvent("orphan")
	end2 := d.AddEnd()
	d.Link(orphan, end2)
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("want unreachable error, got %v", err)
	}
}

func TestValidateCatchesDuplicateValues(t *testing.T) {
	d := New("dup")
	dec := d.AddDecision("P")
	d.Link(d.StartNode(), dec)
	e1 := d.AddEnd()
	e2 := d.AddEnd()
	d.LinkValue(dec, e1, "x")
	d.LinkValue(dec, e2, "x")
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate value") {
		t.Fatalf("want duplicate value error, got %v", err)
	}
}

func TestValidateCatchesUnlabelledDecisionEdge(t *testing.T) {
	d := New("unlabelled")
	dec := d.AddDecision("P")
	d.Link(d.StartNode(), dec)
	e := d.AddEnd()
	d.Link(dec, e) // missing value
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "unlabelled") {
		t.Fatalf("want unlabelled error, got %v", err)
	}
}

func TestValidateCatchesMultipleOut(t *testing.T) {
	d := New("multi")
	a := d.AddEvent("a")
	d.Link(d.StartNode(), a)
	e1 := d.AddEnd()
	e2 := d.AddEnd()
	d.Link(a, e1)
	d.Link(a, e2)
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "outgoing causality") {
		t.Fatalf("want fan-out error, got %v", err)
	}
}

func TestSignatureCountsMultiplicity(t *testing.T) {
	d := New("twice")
	c1 := d.AddCounter("a")
	c2 := d.AddCounter("a")
	end := d.AddEnd()
	d.Link(d.StartNode(), c1)
	d.Link(c1, c2)
	d.Link(c2, end)
	paths, err := d.Paths()
	if err != nil {
		t.Fatal(err)
	}
	set := counters.NewSet("a")
	sig := d.Signature(paths[0], set)
	if sig.Vec().Key() != "2" {
		t.Fatalf("got %s, want 2", sig.Vec().Key())
	}
}

func TestPathString(t *testing.T) {
	d := figure4a()
	paths, _ := d.Paths()
	var hit string
	for _, p := range paths {
		if p.Assignment["Pde$Status"] == "Miss" {
			hit = d.PathString(p)
		}
	}
	if !strings.Contains(hit, "load.pde$_miss") || !strings.Contains(hit, "Pde$Status=Miss") {
		t.Fatalf("path string: %q", hit)
	}
}

func TestMerge(t *testing.T) {
	a := New("A")
	ca := a.AddCounter("x")
	ea := a.AddEnd()
	a.Link(a.StartNode(), ca)
	a.Link(ca, ea)

	b := New("B")
	cb := b.AddCounter("y")
	eb := b.AddEnd()
	b.Link(b.StartNode(), cb)
	b.Link(cb, eb)

	m := Merge("AB", a, b)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	paths, err := m.Paths()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	set := counters.NewSet("x", "y")
	keys := map[string]bool{}
	for _, p := range paths {
		keys[m.Signature(p, set).Vec().Key()] = true
	}
	if !keys["1|0"] || !keys["0|1"] {
		t.Fatalf("merged signatures wrong: %v", keys)
	}
}

func TestMergePreservesHappensBefore(t *testing.T) {
	a := New("A")
	e1 := a.AddEvent("e1")
	e2 := a.AddEvent("e2")
	end := a.AddEnd()
	a.Link(a.StartNode(), e1)
	a.Link(e1, e2)
	a.Link(e2, end)
	a.HappensBefore(e1, e2)
	m := Merge("M", a)
	if len(m.hb) != 1 {
		t.Fatalf("hb edges: %d", len(m.hb))
	}
}

func TestAssignedValueWithNoEdge(t *testing.T) {
	// First decision on P has values {a, b}; a later decision on P only has
	// edge for value a → value b path errors out.
	d := New("noedge")
	d1 := d.AddDecision("P")
	d.Link(d.StartNode(), d1)
	m1 := d.AddEvent("m1")
	d.LinkValue(d1, m1, "a")
	m2 := d.AddEvent("m2")
	d.LinkValue(d1, m2, "b")
	d2 := d.AddDecision("P")
	d.Link(m1, d2)
	d.Link(m2, d2)
	end := d.AddEnd()
	d.LinkValue(d2, end, "a")
	if _, err := d.Paths(); err == nil || !strings.Contains(err.Error(), "no edge for assigned value") {
		t.Fatalf("want assigned-value error, got %v", err)
	}
}

// Signature computes the counter signature S(p) of a μpath over set: the
// count of each HEC's counter-node occurrences along the path, as an
// integer vector (Den 1).
func (d *Diagram) Signature(p Path, set *counters.Set) exact.Vec64 {
	sig := exact.Vec64{Num: make([]int64, set.Len()), Den: 1}
	for _, id := range p.Nodes {
		n := d.nodes[id]
		if n.Kind != Counter {
			continue
		}
		if i, ok := set.Index(counters.Event(n.Label)); ok {
			sig.Num[i]++
		}
	}
	return sig
}
