package lang

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind enumerates lexical token kinds.
type tokenKind int

const (
	tokEOF     tokenKind = iota
	tokIdent             // lowercase identifier: predicate, domain, function, symbol constant
	tokVar               // variable, possibly with attribute path: X, $ans.1, P.name
	tokString            // quoted string constant
	tokInt               // integer literal
	tokFloat             // float literal
	tokLParen            // (
	tokRParen            // )
	tokComma             // ,
	tokAmp               // &
	tokColon             // :
	tokDot               // . (statement terminator)
	tokIf                // :-
	tokQuery             // ?-
	tokImplies           // =>
	tokRelOp             // = != <> < <= > >= =<
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVar:
		return "variable"
	case tokString:
		return "string"
	case tokInt:
		return "integer"
	case tokFloat:
		return "float"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokAmp:
		return "'&'"
	case tokColon:
		return "':'"
	case tokDot:
		return "'.'"
	case tokIf:
		return "':-'"
	case tokQuery:
		return "'?-'"
	case tokImplies:
		return "'=>'"
	case tokRelOp:
		return "comparison operator"
	}
	return "token"
}

// token is one lexical token with its source position.
type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// lexer tokenizes mediator language source. It reads the source string
// in place: pos is a byte offset, runes are decoded as they are read (an
// invalid byte reads as U+FFFD, as converting to []rune makes it), and a
// token's text is a substring of the source unless it is a string literal
// holding an escape or an invalid byte. line and col count runes.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (lx *lexer) errorf(line, col int, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

// decode returns the rune at byte offset p and its width; 0, 0 past the end.
func (lx *lexer) decode(p int) (rune, int) {
	if p >= len(lx.src) {
		return 0, 0
	}
	if c := lx.src[p]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(lx.src[p:])
}

func (lx *lexer) peek() rune {
	r, _ := lx.decode(lx.pos)
	return r
}

// peekAt returns the rune off runes ahead of the current one.
func (lx *lexer) peekAt(off int) rune {
	p := lx.pos
	for ; off > 0; off-- {
		_, n := lx.decode(p)
		p += n
	}
	r, _ := lx.decode(p)
	return r
}

func (lx *lexer) advance() rune {
	r, n := lx.decode(lx.pos)
	lx.pos += n
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_' || r == '$'
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func isVarStart(r rune) bool {
	return unicode.IsUpper(r) || r == '_' || r == '$'
}

func (lx *lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		r := lx.peek()
		switch {
		case unicode.IsSpace(r):
			lx.advance()
		case r == '%' || r == '#':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case r == '/' && lx.peekAt(1) == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		default:
			return
		}
	}
}

// next scans the next token.
func (lx *lexer) next() (token, error) {
	lx.skipSpaceAndComments()
	line, col := lx.line, lx.col
	mk := func(k tokenKind, text string) token {
		return token{kind: k, text: text, line: line, col: col}
	}
	if lx.pos >= len(lx.src) {
		return mk(tokEOF, ""), nil
	}
	r := lx.peek()
	switch {
	case r == '(':
		lx.advance()
		return mk(tokLParen, "("), nil
	case r == ')':
		lx.advance()
		return mk(tokRParen, ")"), nil
	case r == ',':
		lx.advance()
		return mk(tokComma, ","), nil
	case r == '&':
		lx.advance()
		return mk(tokAmp, "&"), nil
	case r == '?' && lx.peekAt(1) == '-':
		lx.advance()
		lx.advance()
		return mk(tokQuery, "?-"), nil
	case r == ':':
		lx.advance()
		if lx.peek() == '-' {
			lx.advance()
			return mk(tokIf, ":-"), nil
		}
		return mk(tokColon, ":"), nil
	case r == '.':
		lx.advance()
		return mk(tokDot, "."), nil
	case r == '=' || r == '!' || r == '<' || r == '>':
		return lx.scanOperator(mk)
	case r == '\'' || r == '"':
		return lx.scanString(mk)
	case unicode.IsDigit(r) || (r == '-' && unicode.IsDigit(lx.peekAt(1))):
		return lx.scanNumber(mk)
	case isIdentStart(r):
		return lx.scanWord(mk)
	}
	return token{}, lx.errorf(line, col, "unexpected character %q", r)
}

func (lx *lexer) scanOperator(mk func(tokenKind, string) token) (token, error) {
	start := lx.pos
	r := lx.advance()
	switch n := lx.peek(); {
	case r == '=' && n == '>':
		lx.advance()
		return mk(tokImplies, "=>"), nil
	case n == '=' || (r == '<' && n == '>') || (r == '=' && n == '<'):
		lx.advance()
		return mk(tokRelOp, lx.src[start:lx.pos]), nil
	}
	switch r {
	case '=', '<', '>':
		return mk(tokRelOp, lx.src[start:lx.pos]), nil
	}
	return token{}, lx.errorf(mk(0, "").line, mk(0, "").col, "unexpected character %q", r)
}

// scanString returns the literal as a substring of the source until it
// meets an escape or an invalid byte; from there on it builds the text.
func (lx *lexer) scanString(mk func(tokenKind, string) token) (token, error) {
	quote := lx.advance()
	start := lx.pos
	var b *strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			t := mk(tokString, "")
			return token{}, lx.errorf(t.line, t.col, "unterminated string")
		}
		at := lx.pos
		r, n := lx.decode(at)
		if b == nil {
			if r == quote {
				lx.advance()
				return mk(tokString, lx.src[start:at]), nil
			}
			if r != '\\' && (r != utf8.RuneError || n > 1) {
				lx.advance()
				continue
			}
			b = new(strings.Builder)
			b.WriteString(lx.src[start:at])
		}
		lx.advance()
		if r == quote {
			return mk(tokString, b.String()), nil
		}
		if r == '\\' && lx.pos < len(lx.src) {
			switch esc := lx.advance(); esc {
			case 'n':
				b.WriteRune('\n')
			case 't':
				b.WriteRune('\t')
			default:
				b.WriteRune(esc)
			}
			continue
		}
		b.WriteRune(r)
	}
}

func (lx *lexer) scanNumber(mk func(tokenKind, string) token) (token, error) {
	start := lx.pos
	if lx.peek() == '-' {
		lx.advance()
	}
	for lx.pos < len(lx.src) && unicode.IsDigit(lx.peek()) {
		lx.advance()
	}
	isFloat := false
	// A '.' is part of the number only when followed by a digit; otherwise it
	// is the statement terminator (e.g. "q(142)." ).
	if lx.peek() == '.' && unicode.IsDigit(lx.peekAt(1)) {
		isFloat = true
		lx.advance()
		for lx.pos < len(lx.src) && unicode.IsDigit(lx.peek()) {
			lx.advance()
		}
	}
	// An exponent may follow either form ("1.5e3", "1e+06") when a digit
	// (optionally signed) comes after the 'e'.
	if e := lx.peek(); e == 'e' || e == 'E' {
		n1, n2 := lx.peekAt(1), lx.peekAt(2)
		if unicode.IsDigit(n1) || ((n1 == '+' || n1 == '-') && unicode.IsDigit(n2)) {
			isFloat = true
			lx.advance() // e
			if lx.peek() == '+' || lx.peek() == '-' {
				lx.advance()
			}
			for lx.pos < len(lx.src) && unicode.IsDigit(lx.peek()) {
				lx.advance()
			}
		}
	}
	if isFloat {
		return mk(tokFloat, lx.src[start:lx.pos]), nil
	}
	return mk(tokInt, lx.src[start:lx.pos]), nil
}

// scanWord scans identifiers and variables. Variables may carry an
// attribute path: the lexer folds "P.name" or "$ans.1" into a single tokVar
// whose text contains the dots, disambiguating the path dot from the
// statement terminator (a terminator dot is never directly followed by an
// identifier or digit belonging to the same variable reference, because
// attribute access requires no intervening whitespace).
func (lx *lexer) scanWord(mk func(tokenKind, string) token) (token, error) {
	start := lx.pos
	first := lx.advance()
	for lx.pos < len(lx.src) && isIdentRune(lx.peek()) {
		lx.advance()
	}
	if isVarStart(first) {
		for lx.peek() == '.' && (isIdentRune(lx.peekAt(1)) || unicode.IsDigit(lx.peekAt(1))) {
			lx.advance() // '.'
			for lx.pos < len(lx.src) && isIdentRune(lx.peek()) {
				lx.advance()
			}
		}
		return mk(tokVar, lx.src[start:lx.pos]), nil
	}
	return mk(tokIdent, lx.src[start:lx.pos]), nil
}
