package lang

import (
	"slices"

	"hermes/internal/term"
)

// Tokens is a query's source text lexed once: what a planner keys the
// shapes of queries by before, or instead of, parsing them.
type Tokens struct{ toks []token }

// LexQuery lexes the source text of a query. Its error is the one
// ParseQuery returns for the same text.
func LexQuery(src string) (Tokens, error) {
	toks, err := lexAll(src)
	return Tokens{toks}, err
}

// lifted reports whether tokens of kind k are constants a template lifts
// from a query's text: strings, integers and floats.
func lifted(k tokenKind) bool { return k == tokString || k == tokInt || k == tokFloat }

// ShapeHash hashes the tokens with every string, integer and float reduced
// to its kind: the texts one template lifts hash alike.
func (t Tokens) ShapeHash() uint64 {
	const prime = 1099511628211 // FNV-1a
	h := uint64(14695981039346656037)
	for _, tk := range t.toks {
		h = (h ^ uint64(tk.kind)) * prime
		if lifted(tk.kind) {
			continue
		}
		for i := 0; i < len(tk.text); i++ {
			h = (h ^ uint64(tk.text[i])) * prime
		}
		h *= prime // a terminator, so that neighbouring texts cannot trade bytes
	}
	return h
}

// Template is a parsed query kept for the queries whose tokens differ from
// its own only in the values of strings, integers and floats: their bodies
// are its body with their constants lifted into it, and no parse. It is
// immutable.
type Template struct {
	// Query is the query the template was parsed from.
	Query *Query
	toks  []token
	holes []hole
}

// hole is one lifted constant of a template: the index of its token, and
// the literal and term it fills (see TermAt).
type hole struct{ tok, lit, term int }

// ParseTemplate parses the tokens as ParseQuery parses their text, with
// the same result and the same errors, keeping them and where each string,
// integer and float lands in the query.
func ParseTemplate(t Tokens) (*Template, error) {
	var terms []int
	p := &parser{toks: t.toks, terms: &terms}
	q, err := p.parseQueryText()
	if err != nil {
		return nil, err
	}
	tp := &Template{Query: q, toks: t.toks}
	// The parser reads the terms of a body in TermAt's order.
	k := 0
	for i, lit := range q.Body {
		for j := 0; TermAt(lit, j) != nil; j++ {
			if lifted(t.toks[terms[k]].kind) {
				tp.holes = append(tp.holes, hole{tok: terms[k], lit: i, term: j})
			}
			k++
		}
	}
	return tp, nil
}

// Lift returns the body of the query lexed as t when its tokens are the
// template's but for the values of strings, integers and floats: the
// template's body with t's constants in their places. A literal whose
// constants all read as the template's is the template's own, and so is
// a constant whose text is. ok is false when the tokens differ otherwise,
// or when a constant does not convert (an integer out of range): parsing
// t reports that.
func (tp *Template) Lift(t Tokens) (body []Literal, ok bool) {
	if len(t.toks) != len(tp.toks) {
		return nil, false
	}
	for i, tk := range t.toks {
		if tt := tp.toks[i]; tk.kind != tt.kind || !lifted(tk.kind) && tk.text != tt.text {
			return nil, false
		}
	}
	body = tp.Query.Body
	own := true // body is the template's
	for _, h := range tp.holes {
		tk := t.toks[h.tok]
		if tk.text == tp.toks[h.tok].text {
			continue
		}
		v, err := constant(tk)
		if err != nil {
			return nil, false
		}
		if own {
			body, own = slices.Clone(body), false
		}
		if body[h.lit] == tp.Query.Body[h.lit] {
			body[h.lit] = CloneLiteral(body[h.lit])
		}
		TermAt(body[h.lit], h.term).Const = v
	}
	return body, true
}

// TermAt returns the j-th term of a literal, in the order the parser reads
// them: an atom's arguments; an in()'s output, then its call's arguments;
// a comparison's left side, then its right. It is nil past the last.
func TermAt(l Literal, j int) *term.Term {
	switch l := l.(type) {
	case *Atom:
		if j < len(l.Args) {
			return &l.Args[j]
		}
	case *InCall:
		if j == 0 {
			return &l.Out
		}
		if j <= len(l.Call.Args) {
			return &l.Call.Args[j-1]
		}
	case *Comparison:
		switch j {
		case 0:
			return &l.Left
		case 1:
			return &l.Right
		}
	}
	return nil
}

// CloneLiteral returns a copy of a literal whose terms can be set without
// changing the original's.
func CloneLiteral(l Literal) Literal {
	switch l := l.(type) {
	case *Atom:
		return &Atom{Pred: l.Pred, Args: slices.Clone(l.Args)}
	case *InCall:
		c := *l
		c.Call.Args = slices.Clone(l.Call.Args)
		return &c
	case *Comparison:
		c := *l
		return &c
	}
	return l
}
