package dsl

import (
	"repro/internal/counters"
	"repro/internal/mudd"
)

// Compile parses src and builds the corresponding μDD. For `uop` files the
// result is the merged diagram of all blocks (one branch per micro-op type,
// selected by the synthetic "Diagram" property).
func Compile(name, src string) (*mudd.Diagram, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Uops) > 0 {
		ds := make([]*mudd.Diagram, len(prog.Uops))
		for i, blk := range prog.Uops {
			d, err := compileStmts(blk.Name, blk.Body)
			if err != nil {
				return nil, err
			}
			ds[i] = d
		}
		merged := mudd.Merge(name, ds...)
		if err := merged.Validate(); err != nil {
			return nil, err
		}
		return merged, nil
	}
	d, err := compileStmts(name, prog.Stmts)
	if err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// contFn supplies a continuation node lazily, so unreachable continuations
// (after `done`) are never allocated.
type contFn func() (mudd.NodeID, error)

// compiler builds one diagram, allocating the shared implicit END node
// lazily so diagrams whose every μpath ends in an explicit `done` do not
// grow an unreachable END.
type compiler struct {
	d      *mudd.Diagram
	end    mudd.NodeID
	hasEnd bool
}

func (c *compiler) endNode() (mudd.NodeID, error) {
	if !c.hasEnd {
		c.end = c.d.AddEnd()
		c.hasEnd = true
	}
	return c.end, nil
}

func compileStmts(name string, stmts []Stmt) (*mudd.Diagram, error) {
	c := &compiler{d: mudd.New(name)}
	entry, err := c.seq(stmts, c.endNode)
	if err != nil {
		return nil, err
	}
	c.d.Link(c.d.StartNode(), entry)
	return c.d, nil
}

// seq compiles a statement list, returning its entry node. Control falls
// through to cont after the last statement.
func (c *compiler) seq(stmts []Stmt, cont contFn) (mudd.NodeID, error) {
	if len(stmts) == 0 {
		return cont()
	}
	head, rest := stmts[0], stmts[1:]
	// restCont memoises the compiled remainder so switch cases that fall
	// through share a single merge point.
	var restNode mudd.NodeID
	restDone := false
	restCont := func() (mudd.NodeID, error) {
		if !restDone {
			n, err := c.seq(rest, cont)
			if err != nil {
				return 0, err
			}
			restNode = n
			restDone = true
		}
		return restNode, nil
	}

	switch s := head.(type) {
	case *IncrStmt:
		node := c.d.AddCounter(counters.Event(s.Counter))
		next, err := restCont()
		if err != nil {
			return 0, err
		}
		c.d.Link(node, next)
		return node, nil
	case *DoStmt:
		node := c.d.AddEvent(s.Event)
		next, err := restCont()
		if err != nil {
			return 0, err
		}
		c.d.Link(node, next)
		return node, nil
	case *PassStmt:
		return c.seq(rest, cont)
	case *DoneStmt:
		if len(rest) > 0 {
			l, col := rest[0].Pos()
			return 0, errAt(l, col, "unreachable statement after done")
		}
		n, _ := c.endNode()
		return n, nil
	case *SwitchStmt:
		dec := c.d.AddDecision(s.Property)
		for _, cs := range s.Cases {
			entry, err := c.seq(cs.Body, restCont)
			if err != nil {
				return 0, err
			}
			c.d.LinkValue(dec, entry, cs.Value)
		}
		return dec, nil
	default:
		l, col := head.Pos()
		return 0, errAt(l, col, "unsupported statement")
	}
}
