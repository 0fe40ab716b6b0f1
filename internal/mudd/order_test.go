package mudd

import "fmt"

// The happens-before check of paper §3, as the tests state it: no verdict
// depends on event order (signatures count events), so it lives here
// rather than in the package.

// EventOrder returns a linearisation of the μpath's nodes that respects
// both the causality order (the path sequence itself) and every
// happens-before edge between nodes on the path (paper §3: "a μop
// generates events in a time order that respects both causality and
// happens-before edges"). An error is reported if the two orders conflict
// — i.e. a happens-before edge points against the causality sequence — or
// if happens-before edges alone form a cycle among the path's nodes.
//
// For well-formed diagrams whose happens-before edges agree with causality
// (the common case, including everything the DSL emits), the result is the
// path itself; the check matters when diagrams are hand-built with extra
// ordering assertions.
func (d *Diagram) EventOrder(p Path) ([]NodeID, error) {
	pos := make(map[NodeID]int, len(p.Nodes))
	for i, id := range p.Nodes {
		if _, dup := pos[id]; dup {
			return nil, fmt.Errorf("mudd(%s): node %d appears twice on μpath", d.Name, id)
		}
		pos[id] = i
	}
	for _, h := range d.hb {
		bi, onPathB := pos[h.Before]
		ai, onPathA := pos[h.After]
		if !onPathB || !onPathA {
			continue // the edge constrains other μpaths
		}
		if bi >= ai {
			return nil, fmt.Errorf(
				"mudd(%s): happens-before edge %s -> %s contradicts causality order on μpath",
				d.Name, d.nodes[h.Before].Label, d.nodes[h.After].Label)
		}
	}
	out := make([]NodeID, len(p.Nodes))
	copy(out, p.Nodes)
	return out, nil
}

// CheckHappensBefore verifies EventOrder for every μpath of the diagram.
func (d *Diagram) CheckHappensBefore() error {
	paths, err := d.Paths()
	if err != nil {
		return err
	}
	for _, p := range paths {
		if _, err := d.EventOrder(p); err != nil {
			return err
		}
	}
	return nil
}
