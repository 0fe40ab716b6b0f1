package mudd

import (
	"fmt"
	"strings"
)

// DOT renders the diagram in Graphviz dot format, mirroring the paper's
// visual language (Figure 4a): green boxes for standard events, blue pills
// for counter nodes, diamonds for decisions, solid arrows for causality
// edges (labelled with property values) and dashed arrows for
// happens-before edges.
func (d *Diagram) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", d.Name)
	b.WriteString("  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n")
	for _, n := range d.nodes {
		attrs := ""
		switch n.Kind {
		case Start, End:
			attrs = `shape=circle, style=bold`
		case Event:
			attrs = `shape=box, style=filled, fillcolor="#c8e6c9"`
		case Counter:
			attrs = `shape=box, style="rounded,filled", fillcolor="#bbdefb"`
		case Decision:
			attrs = `shape=diamond, style=filled, fillcolor="#fff9c4"`
		}
		fmt.Fprintf(&b, "  n%d [label=%q, %s];\n", n.ID, n.Label, attrs)
	}
	for _, es := range d.outInOrder() {
		for _, e := range es {
			if e.Value != "" {
				fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", e.From, e.To, e.Value)
			} else {
				fmt.Fprintf(&b, "  n%d -> n%d;\n", e.From, e.To)
			}
		}
	}
	for _, h := range d.hb {
		fmt.Fprintf(&b, "  n%d -> n%d [style=dashed, color=gray, constraint=false];\n",
			h.Before, h.After)
	}
	b.WriteString("}\n")
	return b.String()
}

// outInOrder returns outgoing edge lists keyed by ascending node ID so DOT
// output is deterministic.
func (d *Diagram) outInOrder() [][]Edge {
	out := make([][]Edge, len(d.nodes))
	for id, es := range d.out {
		out[id] = es
	}
	return out
}
