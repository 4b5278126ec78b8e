package lang

import (
	"fmt"
	"strconv"
	"strings"

	"hermes/internal/term"
)

// parser consumes a pre-lexed token stream.
type parser struct {
	toks []token
	pos  int
	// terms, when set, collects the token index of every term parsed, in
	// the order read.
	terms *[]int
}

func lexAll(src string) ([]token, error) {
	lx := newLexer(src)
	// Queries run about two bytes to a token counting the end: "?- q(4, 47, O)."
	// is 15 bytes and 11 tokens. Longer source (programs, comments) grows
	// from the cap instead of reserving for its whole length up front.
	toks := make([]token, 0, min(len(src)/2+2, 64))
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) at(k tokenKind) bool {
	return p.cur().kind == k
}
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k tokenKind) (token, error) {
	if !p.at(k) {
		t := p.cur()
		return token{}, fmt.Errorf("%d:%d: expected %s, found %s %q", t.line, t.col, k, t.kind, t.text)
	}
	return p.advance(), nil
}

// statementHasImplies looks ahead to the next statement terminator for '=>',
// which distinguishes invariants from rules.
func (p *parser) statementHasImplies() bool {
	for i := p.pos; i < len(p.toks); i++ {
		switch p.toks[i].kind {
		case tokImplies:
			return true
		case tokDot, tokEOF:
			return false
		}
	}
	return false
}

// ParseProgram parses a mediator specification: rules and invariants.
// Queries (?- ...) are rejected; use ParseSource to accept mixed input.
func ParseProgram(src string) (*Program, error) {
	prog, queries, err := ParseSource(src)
	if err != nil {
		return nil, err
	}
	if len(queries) > 0 {
		return nil, fmt.Errorf("unexpected query in program: %s", queries[0])
	}
	return prog, nil
}

// ParseSource parses mixed input: rules, invariants and queries.
func ParseSource(src string) (*Program, []*Query, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	var queries []*Query
	for !p.at(tokEOF) {
		switch {
		case p.at(tokQuery):
			q, err := p.parseQuery()
			if err != nil {
				return nil, nil, err
			}
			queries = append(queries, q)
		case p.statementHasImplies():
			inv, err := p.parseInvariant()
			if err != nil {
				return nil, nil, err
			}
			prog.Invariants = append(prog.Invariants, inv)
		default:
			r, err := p.parseRule()
			if err != nil {
				return nil, nil, err
			}
			prog.Rules = append(prog.Rules, r)
		}
	}
	return prog, queries, nil
}

// ParseQuery parses a single query, with or without the leading "?-".
func ParseQuery(src string) (*Query, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	return (&parser{toks: toks}).parseQueryText()
}

// parseQueryText parses the tokens of a query's whole text.
func (p *parser) parseQueryText() (*Query, error) {
	if p.at(tokQuery) {
		p.advance()
	}
	body, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	if p.at(tokDot) {
		p.advance()
	}
	if !p.at(tokEOF) {
		t := p.cur()
		return nil, fmt.Errorf("%d:%d: trailing input after query", t.line, t.col)
	}
	return &Query{Body: body}, nil
}

// ParseInvariant parses a single invariant statement.
func ParseInvariant(src string) (*Invariant, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	inv, err := p.parseInvariant()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		t := p.cur()
		return nil, fmt.Errorf("%d:%d: trailing input after invariant", t.line, t.col)
	}
	return inv, nil
}

func (p *parser) parseQuery() (*Query, error) {
	if _, err := p.expect(tokQuery); err != nil {
		return nil, err
	}
	body, err := p.parseBody()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokDot); err != nil {
		return nil, err
	}
	return &Query{Body: body}, nil
}

func (p *parser) parseRule() (*Rule, error) {
	head, err := p.parseAtom()
	if err != nil {
		return nil, err
	}
	r := &Rule{Head: *head}
	if p.at(tokIf) {
		p.advance()
		body, err := p.parseBody()
		if err != nil {
			return nil, err
		}
		r.Body = body
	}
	if _, err := p.expect(tokDot); err != nil {
		return nil, err
	}
	return r, nil
}

func (p *parser) parseInvariant() (*Invariant, error) {
	inv := &Invariant{}
	// Condition: "true" or a conjunction of comparisons.
	if p.at(tokIdent) && p.cur().text == "true" {
		p.advance()
	} else if !p.at(tokImplies) {
		for {
			cmp, err := p.parseComparison()
			if err != nil {
				return nil, err
			}
			inv.Cond = append(inv.Cond, *cmp)
			if p.at(tokComma) || p.at(tokAmp) {
				p.advance()
				continue
			}
			break
		}
	}
	if _, err := p.expect(tokImplies); err != nil {
		return nil, err
	}
	left, err := p.parseCallTemplate()
	if err != nil {
		return nil, err
	}
	inv.Left = *left
	op, err := p.expect(tokRelOp)
	if err != nil {
		return nil, err
	}
	switch op.text {
	case "=", "==":
		inv.Rel = RelEqual
	case ">=":
		inv.Rel = RelSuperset
	default:
		return nil, fmt.Errorf("%d:%d: invariant relation must be '=' or '>=', found %q", op.line, op.col, op.text)
	}
	right, err := p.parseCallTemplate()
	if err != nil {
		return nil, err
	}
	inv.Right = *right
	if _, err := p.expect(tokDot); err != nil {
		return nil, err
	}
	return inv, nil
}

func (p *parser) parseBody() ([]Literal, error) {
	var body []Literal
	for {
		lit, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		body = append(body, lit)
		if p.at(tokComma) || p.at(tokAmp) {
			p.advance()
			continue
		}
		return body, nil
	}
}

func (p *parser) parseLiteral() (Literal, error) {
	t := p.cur()
	switch t.kind {
	case tokRelOp:
		// Prefix form: ==(P.name, Actor).
		p.advance()
		op, ok := term.ParseRelOp(t.text)
		if !ok {
			return nil, fmt.Errorf("%d:%d: unknown operator %q", t.line, t.col, t.text)
		}
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		left, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokComma); err != nil {
			return nil, err
		}
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return &Comparison{Op: op, Left: left, Right: right}, nil
	case tokIdent:
		if t.text == "in" && p.toks[p.pos+1].kind == tokLParen {
			return p.parseInCall()
		}
		// Atom, or a comparison with a symbolic-constant left side.
		if p.toks[p.pos+1].kind == tokRelOp {
			return p.parseComparison()
		}
		return p.parseAtom()
	case tokVar, tokString, tokInt, tokFloat:
		return p.parseComparison()
	}
	return nil, fmt.Errorf("%d:%d: expected a literal, found %s %q", t.line, t.col, t.kind, t.text)
}

func (p *parser) parseInCall() (*InCall, error) {
	if _, err := p.expect(tokIdent); err != nil { // "in"
		return nil, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	out, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokComma); err != nil {
		return nil, err
	}
	call, err := p.parseCallTemplate()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return &InCall{Out: out, Call: *call}, nil
}

func (p *parser) parseComparison() (*Comparison, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	opTok, err := p.expect(tokRelOp)
	if err != nil {
		return nil, err
	}
	op, ok := term.ParseRelOp(opTok.text)
	if !ok {
		return nil, fmt.Errorf("%d:%d: unknown operator %q", opTok.line, opTok.col, opTok.text)
	}
	right, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	return &Comparison{Op: op, Left: left, Right: right}, nil
}

func (p *parser) parseAtom() (*Atom, error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	a := &Atom{Pred: name.text}
	if !p.at(tokLParen) {
		return a, nil
	}
	p.advance()
	if p.at(tokRParen) {
		p.advance()
		return a, nil
	}
	for {
		t, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		a.Args = append(a.Args, t)
		if p.at(tokComma) {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return a, nil
}

// parseCallTemplate parses domain:function(args...).
func (p *parser) parseCallTemplate() (*CallTemplate, error) {
	dom, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokColon); err != nil {
		return nil, err
	}
	fn, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	ct := &CallTemplate{Domain: dom.text, Function: fn.text}
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	if p.at(tokRParen) {
		p.advance()
		return ct, nil
	}
	for {
		t, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		ct.Args = append(ct.Args, t)
		if p.at(tokComma) {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) parseTerm() (term.Term, error) {
	if p.terms != nil {
		*p.terms = append(*p.terms, p.pos)
	}
	t := p.advance()
	switch t.kind {
	case tokVar:
		parts := strings.Split(t.text, ".")
		return term.V(parts[0], parts[1:]...), nil
	case tokString, tokInt, tokFloat:
		v, err := constant(t)
		if err != nil {
			return term.Term{}, err
		}
		return term.C(v), nil
	case tokIdent:
		switch t.text {
		case "true":
			return term.C(term.Bool(true)), nil
		case "false":
			return term.C(term.Bool(false)), nil
		}
		// Lower-case identifiers in term position are symbolic constants.
		return term.C(term.Str(t.text)), nil
	}
	return term.Term{}, fmt.Errorf("%d:%d: expected a term, found %s %q", t.line, t.col, t.kind, t.text)
}

// constant converts a string, integer or float token to its value.
func constant(t token) (term.Value, error) {
	switch t.kind {
	case tokInt:
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%d:%d: bad integer %q: %v", t.line, t.col, t.text, err)
		}
		return term.Int(n), nil
	case tokFloat:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("%d:%d: bad float %q: %v", t.line, t.col, t.text, err)
		}
		return term.Float(f), nil
	}
	return term.Str(t.text), nil
}
