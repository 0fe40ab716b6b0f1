package mudd

import (
	"strings"
	"testing"
)

func TestDOTOutput(t *testing.T) {
	d := figure4a()
	dot := d.DOT()
	for _, want := range []string{
		"digraph \"fig4a\"",
		"shape=diamond",            // decision node
		"fillcolor=\"#bbdefb\"",    // counter node
		"label=\"Miss\"",           // labelled causality edge
		"style=dashed",             // happens-before edge
		"label=\"load.pde$_miss\"", // counter label
		"label=\"load.causes_walk\"",
	} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// Deterministic.
	if d.DOT() != dot {
		t.Fatal("DOT output must be deterministic")
	}
}

func TestEventOrderConsistent(t *testing.T) {
	d := figure4a()
	if err := d.CheckHappensBefore(); err != nil {
		t.Fatal(err)
	}
	paths, _ := d.Paths()
	order, err := d.EventOrder(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(paths[0].Nodes) {
		t.Fatal("order must cover the whole path")
	}
}

func TestEventOrderDetectsContradiction(t *testing.T) {
	d := New("contra")
	a := d.AddEvent("a")
	b := d.AddEvent("b")
	end := d.AddEnd()
	d.Link(d.StartNode(), a)
	d.Link(a, b)
	d.Link(b, end)
	// Assert b happens before a — contradicting causality.
	d.HappensBefore(b, a)
	if err := d.CheckHappensBefore(); err == nil {
		t.Fatal("contradictory happens-before must be detected")
	}
}

func TestEventOrderIgnoresOffPathEdges(t *testing.T) {
	d := New("offpath")
	dec := d.AddDecision("P")
	d.Link(d.StartNode(), dec)
	a := d.AddEvent("a")
	b := d.AddEvent("b")
	endA := d.AddEnd()
	endB := d.AddEnd()
	d.LinkValue(dec, a, "A")
	d.LinkValue(dec, b, "B")
	d.Link(a, endA)
	d.Link(b, endB)
	// a and b never share a μpath, so this edge constrains nothing.
	d.HappensBefore(b, a)
	if err := d.CheckHappensBefore(); err != nil {
		t.Fatal(err)
	}
}
