// Package mudd implements μpath Decision Diagrams (μDDs), the specialised
// DAGs with which CounterPoint captures an expert's mental model of the
// microarchitecture (paper §3).
//
// A μDD encodes the set of microarchitectural execution paths (μpaths) that
// individual micro-ops may take. Nodes are of five kinds: START, END,
// standard event nodes, counter nodes (which increment a hardware event
// counter when traversed), and decision nodes (which branch on a named
// microarchitectural property such as "Pde$Status"). Causality edges order
// the traversal; happens-before edges add timing constraints between nodes
// without affecting path enumeration.
//
// Each μpath has a counter signature — the vector counting how many times
// each HEC appears along the path. The set of signatures generates the
// model cone (package cone), from which all model constraints follow.
package mudd

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/counters"
	"repro/internal/exact"
)

// NodeID identifies a node within one Diagram.
type NodeID int

// NodeKind classifies μDD nodes.
type NodeKind int

// Node kinds.
const (
	Start NodeKind = iota
	End
	Event    // a standard microarchitectural event (green box)
	Counter  // an HEC increment (blue pill)
	Decision // a branch on a μpath property
)

func (k NodeKind) String() string {
	switch k {
	case Start:
		return "start"
	case End:
		return "end"
	case Event:
		return "event"
	case Counter:
		return "counter"
	case Decision:
		return "decision"
	}
	return "?"
}

// Node is one μDD node. Label is the event name for Event nodes, the HEC
// name for Counter nodes, and the property name for Decision nodes.
type Node struct {
	ID    NodeID
	Kind  NodeKind
	Label string
}

// Edge is a causality edge. Value is the property value selected when the
// edge leaves a Decision node (empty otherwise).
type Edge struct {
	From, To NodeID
	Value    string
}

// HBEdge is a happens-before ordering edge between two nodes.
type HBEdge struct {
	Before, After NodeID
}

// Diagram is a μpath Decision Diagram under construction or in use.
type Diagram struct {
	Name  string
	nodes []Node
	out   map[NodeID][]Edge
	hb    []HBEdge
	start NodeID
	built bool
}

// New returns an empty diagram with a START node.
func New(name string) *Diagram {
	d := &Diagram{Name: name, out: make(map[NodeID][]Edge), start: -1}
	d.start = d.addNode(Start, "START")
	return d
}

func (d *Diagram) addNode(kind NodeKind, label string) NodeID {
	id := NodeID(len(d.nodes))
	d.nodes = append(d.nodes, Node{ID: id, Kind: kind, Label: label})
	return id
}

// StartNode returns the diagram's START node.
func (d *Diagram) StartNode() NodeID { return d.start }

// AddEvent adds a standard event node.
func (d *Diagram) AddEvent(name string) NodeID { return d.addNode(Event, name) }

// AddCounter adds a counter node incrementing HEC e.
func (d *Diagram) AddCounter(e counters.Event) NodeID {
	return d.addNode(Counter, string(e))
}

// AddDecision adds a decision node branching on property.
func (d *Diagram) AddDecision(property string) NodeID {
	return d.addNode(Decision, property)
}

// AddEnd adds an END node. A diagram may have several (Figure 4a).
func (d *Diagram) AddEnd() NodeID { return d.addNode(End, "END") }

// Link adds a causality edge from → to.
func (d *Diagram) Link(from, to NodeID) {
	d.out[from] = append(d.out[from], Edge{From: from, To: to})
}

// LinkValue adds a causality edge from a decision node labelled with a
// property value.
func (d *Diagram) LinkValue(from, to NodeID, value string) {
	d.out[from] = append(d.out[from], Edge{From: from, To: to, Value: value})
}

// HappensBefore records a happens-before edge between two nodes.
func (d *Diagram) HappensBefore(before, after NodeID) {
	d.hb = append(d.hb, HBEdge{Before: before, After: after})
}

// Node returns the node with the given id.
func (d *Diagram) Node(id NodeID) Node { return d.nodes[id] }

// Nodes returns all nodes in creation order.
func (d *Diagram) Nodes() []Node {
	out := make([]Node, len(d.nodes))
	copy(out, d.nodes)
	return out
}

// HBEdges returns the happens-before edges.
func (d *Diagram) HBEdges() []HBEdge {
	out := make([]HBEdge, len(d.hb))
	copy(out, d.hb)
	return out
}

// Properties returns the sorted set of decision properties in the diagram.
func (d *Diagram) Properties() []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range d.nodes {
		if n.Kind == Decision && !seen[n.Label] {
			seen[n.Label] = true
			out = append(out, n.Label)
		}
	}
	sort.Strings(out)
	return out
}

// Counters returns the set of HECs referenced by counter nodes, in first-
// occurrence order.
func (d *Diagram) Counters() *counters.Set {
	var evs []counters.Event
	for _, n := range d.nodes {
		if n.Kind == Counter {
			evs = append(evs, counters.Event(n.Label))
		}
	}
	return counters.NewSet(evs...)
}

// Validate checks structural well-formedness:
//   - all edges reference existing nodes;
//   - causality edges are acyclic;
//   - non-decision nodes have at most one outgoing causality edge and END
//     nodes none;
//   - decision nodes have at least one outgoing edge, every outgoing edge is
//     labelled, and labels are distinct;
//   - every non-START node is reachable from START;
//   - every maximal path terminates at an END node.
func (d *Diagram) Validate() error {
	n := len(d.nodes)
	check := func(id NodeID) error {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("mudd(%s): edge references unknown node %d", d.Name, id)
		}
		return nil
	}
	for from, es := range d.out {
		if err := check(from); err != nil {
			return err
		}
		node := d.nodes[from]
		switch node.Kind {
		case End:
			if len(es) > 0 {
				return fmt.Errorf("mudd(%s): END node %d has outgoing edges", d.Name, from)
			}
		case Decision:
			seen := map[string]bool{}
			for _, e := range es {
				if err := check(e.To); err != nil {
					return err
				}
				if e.Value == "" {
					return fmt.Errorf("mudd(%s): unlabelled edge out of decision %q", d.Name, node.Label)
				}
				if seen[e.Value] {
					return fmt.Errorf("mudd(%s): duplicate value %q out of decision %q", d.Name, e.Value, node.Label)
				}
				seen[e.Value] = true
			}
		default:
			if len(es) > 1 {
				return fmt.Errorf("mudd(%s): node %d (%s %q) has %d outgoing causality edges",
					d.Name, from, node.Kind, node.Label, len(es))
			}
			for _, e := range es {
				if err := check(e.To); err != nil {
					return err
				}
			}
		}
	}
	for _, n := range d.nodes {
		if n.Kind == Decision && len(d.out[n.ID]) == 0 {
			return fmt.Errorf("mudd(%s): decision %q has no outgoing edges", d.Name, n.Label)
		}
	}
	for _, e := range d.hb {
		if err := check(e.Before); err != nil {
			return err
		}
		if err := check(e.After); err != nil {
			return err
		}
	}
	if err := d.checkAcyclic(); err != nil {
		return err
	}
	// Reachability and END termination.
	reach := make([]bool, n)
	var stack []NodeID
	stack = append(stack, d.start)
	reach[d.start] = true
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range d.out[id] {
			if !reach[e.To] {
				reach[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	for _, node := range d.nodes {
		if !reach[node.ID] {
			return fmt.Errorf("mudd(%s): node %d (%s %q) unreachable from START",
				d.Name, node.ID, node.Kind, node.Label)
		}
		if node.Kind != End && len(d.out[node.ID]) == 0 {
			return fmt.Errorf("mudd(%s): node %d (%s %q) is a dead end (no path to END)",
				d.Name, node.ID, node.Kind, node.Label)
		}
	}
	return nil
}

func (d *Diagram) checkAcyclic() error {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(d.nodes))
	var visit func(id NodeID) error
	visit = func(id NodeID) error {
		color[id] = grey
		for _, e := range d.out[id] {
			switch color[e.To] {
			case grey:
				return fmt.Errorf("mudd(%s): causality cycle through node %d", d.Name, e.To)
			case white:
				if err := visit(e.To); err != nil {
					return err
				}
			}
		}
		color[id] = black
		return nil
	}
	for _, n := range d.nodes {
		if color[n.ID] == white {
			if err := visit(n.ID); err != nil {
				return err
			}
		}
	}
	return nil
}

// Path is one μpath: a happens-before ordered list of node IDs with the
// property assignment that selected it.
type Path struct {
	Nodes      []NodeID
	Assignment map[string]string
}

// MaxPaths bounds μpath enumeration to guard against combinatorial
// explosion in malformed models.
const MaxPaths = 1 << 20

// Paths enumerates every μpath of the diagram. Traversal follows causality
// edges from START; a decision node whose property is already assigned must
// follow the matching edge (paper §3), otherwise traversal forks once per
// labelled edge. The diagram must be valid.
func (d *Diagram) Paths() ([]Path, error) {
	var out []Path
	var nodes []NodeID
	err := d.walk(func(id NodeID, enter bool) {
		if enter {
			nodes = append(nodes, id)
		} else {
			nodes = nodes[:len(nodes)-1]
		}
	}, func(assign map[string]string) {
		cp := make([]NodeID, len(nodes))
		copy(cp, nodes)
		ca := make(map[string]string, len(assign))
		for k, v := range assign {
			ca[k] = v
		}
		out = append(out, Path{Nodes: cp, Assignment: ca})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// walk validates the diagram and enumerates its μpaths depth first, in
// Paths order: step(id, true) on entering a node and step(id, false) on
// leaving it, and atEnd at each END node with the property assignment
// that selected the path, which atEnd must not retain.
func (d *Diagram) walk(step func(id NodeID, enter bool), atEnd func(assign map[string]string)) error {
	if err := d.Validate(); err != nil {
		return err
	}
	paths := 0
	assign := map[string]string{}
	var visit func(id NodeID) error
	visit = func(id NodeID) error {
		step(id, true)
		defer step(id, false)
		node := d.nodes[id]
		if node.Kind == End {
			if paths >= MaxPaths {
				return fmt.Errorf("mudd(%s): more than %d μpaths", d.Name, MaxPaths)
			}
			paths++
			atEnd(assign)
			return nil
		}
		edges := d.out[id]
		if node.Kind != Decision {
			return visit(edges[0].To)
		}
		if v, ok := assign[node.Label]; ok {
			for _, e := range edges {
				if e.Value == v {
					return visit(e.To)
				}
			}
			return fmt.Errorf("mudd(%s): decision %q has no edge for assigned value %q",
				d.Name, node.Label, v)
		}
		for _, e := range edges {
			assign[node.Label] = e.Value
			if err := visit(e.To); err != nil {
				return err
			}
		}
		delete(assign, node.Label)
		return nil
	}
	return visit(d.start)
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

// Signatures returns the counter signature of every μpath over set, in
// Paths order. It keeps one running count vector through the traversal
// and copies it at each END node, so no Path is built.
func (d *Diagram) Signatures(set *counters.Set) ([]exact.Vec64, error) {
	n := set.Len()
	// col[id] is the set index a counter node increments, or -1.
	col := make([]int, len(d.nodes))
	for i, node := range d.nodes {
		col[i] = -1
		if node.Kind == Counter {
			if j, ok := set.Index(counters.Event(node.Label)); ok {
				col[i] = j
			}
		}
	}
	counts := make([]int64, n)
	var flat []int64
	paths := 0
	err := d.walk(func(id NodeID, enter bool) {
		if j := col[id]; j >= 0 {
			if enter {
				counts[j]++
			} else {
				counts[j]--
			}
		}
	}, func(map[string]string) {
		flat = append(flat, counts...)
		paths++
	})
	if err != nil {
		return nil, err
	}
	sigs := make([]exact.Vec64, paths)
	for i := range sigs {
		sigs[i] = exact.Vec64{Num: flat[i*n : (i+1)*n : (i+1)*n], Den: 1}
	}
	return sigs, nil
}

// PathString renders a μpath like "START → LookupPDE$ → load.pde$_miss → END
// [Pde$Status=Miss]" for reports (compare Figure 4b).
func (d *Diagram) PathString(p Path) string {
	var b strings.Builder
	for i, id := range p.Nodes {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(d.nodes[id].Label)
	}
	if len(p.Assignment) > 0 {
		keys := make([]string, 0, len(p.Assignment))
		for k := range p.Assignment {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(" [")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s=%s", k, p.Assignment[k])
		}
		b.WriteString("]")
	}
	return b.String()
}

// Merge returns a diagram whose μpath set is the union of those of ds: a
// fresh START with one branch per input diagram, selected by a synthetic
// "Diagram" decision property. Model cones are additive over flows, so the
// merged diagram's cone equals the conic hull of the union of the inputs'
// signatures — exactly how a multi-μop-type model (load + store diagrams)
// is composed.
func Merge(name string, ds ...*Diagram) *Diagram {
	m := New(name)
	dec := m.AddDecision("Diagram")
	m.Link(m.start, dec)
	for _, d := range ds {
		remap := make(map[NodeID]NodeID, len(d.nodes))
		for _, n := range d.nodes {
			switch n.Kind {
			case Start:
				// replaced by the branch edge below
			default:
				remap[n.ID] = m.addNode(n.Kind, n.Label)
			}
		}
		// Edge from the decision to whatever START pointed at.
		for _, e := range d.out[d.start] {
			m.LinkValue(dec, remap[e.To], d.Name)
		}
		for from, es := range d.out {
			if from == d.start {
				continue
			}
			for _, e := range es {
				if e.Value != "" {
					m.LinkValue(remap[from], remap[e.To], e.Value)
				} else {
					m.Link(remap[from], remap[e.To])
				}
			}
		}
		for _, h := range d.hb {
			nb, ok1 := remap[h.Before]
			na, ok2 := remap[h.After]
			if ok1 && ok2 {
				m.HappensBefore(nb, na)
			}
		}
	}
	return m
}
