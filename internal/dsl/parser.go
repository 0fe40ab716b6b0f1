package dsl

// AST node types. A program is a []Stmt.

// Stmt is any DSL statement.
type Stmt interface {
	stmt()
	Pos() (line, col int)
}

type pos struct{ line, col int }

func (p pos) Pos() (int, int) { return p.line, p.col }

// IncrStmt increments a hardware event counter (a counter node).
type IncrStmt struct {
	pos
	Counter string
}

// DoStmt performs a standard microarchitectural event (an event node).
type DoStmt struct {
	pos
	Event string
}

// PassStmt does nothing.
type PassStmt struct{ pos }

// DoneStmt terminates the μpath (an END node).
type DoneStmt struct{ pos }

// SwitchStmt branches on a μpath property (a decision node).
type SwitchStmt struct {
	pos
	Property string
	Cases    []SwitchCase
}

// SwitchCase is one labelled arm of a switch.
type SwitchCase struct {
	Value string
	Body  []Stmt
}

func (IncrStmt) stmt()   {}
func (DoStmt) stmt()     {}
func (PassStmt) stmt()   {}
func (DoneStmt) stmt()   {}
func (SwitchStmt) stmt() {}

// UopBlock is one `uop Name { ... }` block.
type UopBlock struct {
	Name string
	Body []Stmt
}

// Program is a parsed DSL file: either a bare statement list (Stmts) or a
// set of per-micro-op-type blocks (Uops). Exactly one of the two is set.
type Program struct {
	Stmts []Stmt
	Uops  []UopBlock
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.cur()
	if t.kind != k {
		return t, errAt(t.line, t.col, "expected %s, found %s %q", k, t.kind, t.text)
	}
	p.i++
	return t, nil
}

// expectSemi consumes a ';' but tolerates its absence before '}' or EOF,
// matching the paper's examples which omit trailing semicolons.
func (p *parser) expectSemi() error {
	t := p.cur()
	if t.kind == tokSemi {
		p.i++
		return nil
	}
	if t.kind == tokRBrace || t.kind == tokEOF {
		return nil
	}
	return errAt(t.line, t.col, "expected ';', found %s %q", t.kind, t.text)
}

// Parse parses DSL source into a Program.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	if p.cur().kind == tokIdent && p.cur().text == "uop" {
		for p.cur().kind != tokEOF {
			blk, err := p.parseUop()
			if err != nil {
				return nil, err
			}
			prog.Uops = append(prog.Uops, *blk)
		}
		if len(prog.Uops) == 0 {
			return nil, errAt(1, 1, "empty program")
		}
		return prog, nil
	}
	stmts, err := p.parseStmts(tokEOF)
	if err != nil {
		return nil, err
	}
	prog.Stmts = stmts
	if _, err := p.expect(tokEOF); err != nil {
		return nil, err
	}
	return prog, nil
}

func (p *parser) parseUop() (*UopBlock, error) {
	kw := p.cur()
	if kw.kind != tokIdent || kw.text != "uop" {
		return nil, errAt(kw.line, kw.col, "expected 'uop', found %q", kw.text)
	}
	p.i++
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	body, err := p.parseStmts(tokRBrace)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	return &UopBlock{Name: name.text, Body: body}, nil
}

// parseStmts parses statements until the terminator token kind.
func (p *parser) parseStmts(until tokenKind) ([]Stmt, error) {
	var out []Stmt
	for {
		t := p.cur()
		if t.kind == until || t.kind == tokEOF {
			return out, nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return nil, errAt(t.line, t.col, "expected statement, found %s %q", t.kind, t.text)
	}
	at := pos{t.line, t.col}
	switch t.text {
	case "incr":
		p.i++
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if err := p.expectSemi(); err != nil {
			return nil, err
		}
		return &IncrStmt{pos: at, Counter: name.text}, nil
	case "do":
		p.i++
		name, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if err := p.expectSemi(); err != nil {
			return nil, err
		}
		return &DoStmt{pos: at, Event: name.text}, nil
	case "pass":
		p.i++
		if err := p.expectSemi(); err != nil {
			return nil, err
		}
		return &PassStmt{pos: at}, nil
	case "done":
		p.i++
		if err := p.expectSemi(); err != nil {
			return nil, err
		}
		return &DoneStmt{pos: at}, nil
	case "switch":
		p.i++
		return p.parseSwitch(at)
	default:
		return nil, errAt(t.line, t.col,
			"unknown statement %q (expected incr, do, pass, done, or switch)", t.text)
	}
}

func (p *parser) parseSwitch(at pos) (Stmt, error) {
	prop, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	sw := &SwitchStmt{pos: at, Property: prop.text}
	seen := map[string]bool{}
	for p.cur().kind != tokRBrace {
		val, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if seen[val.text] {
			return nil, errAt(val.line, val.col, "duplicate case %q in switch %s", val.text, sw.Property)
		}
		seen[val.text] = true
		if _, err := p.expect(tokArrow); err != nil {
			return nil, err
		}
		var body []Stmt
		if p.cur().kind == tokLBrace {
			p.i++
			body, err = p.parseStmts(tokRBrace)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRBrace); err != nil {
				return nil, err
			}
			if err := p.expectSemi(); err != nil {
				return nil, err
			}
		} else {
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			body = []Stmt{s}
		}
		sw.Cases = append(sw.Cases, SwitchCase{Value: val.text, Body: body})
	}
	if _, err := p.expect(tokRBrace); err != nil {
		return nil, err
	}
	if err := p.expectSemi(); err != nil {
		return nil, err
	}
	if len(sw.Cases) == 0 {
		l, c := at.Pos()
		return nil, errAt(l, c, "switch %s has no cases", sw.Property)
	}
	return sw, nil
}
