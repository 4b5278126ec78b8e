package lang

import (
	"fmt"
	"strings"
	"testing"
	"unicode"
)

// lexKinds tokenizes src and returns the token kinds (minus EOF).
func lexKinds(t *testing.T, src string) []tokenKind {
	t.Helper()
	toks, err := lexAll(src)
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	var out []tokenKind
	for _, tk := range toks {
		if tk.kind == tokEOF {
			break
		}
		out = append(out, tk.kind)
	}
	return out
}

// lexTexts returns the token texts.
func lexTexts(t *testing.T, src string) []string {
	t.Helper()
	toks, err := lexAll(src)
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	var out []string
	for _, tk := range toks {
		if tk.kind == tokEOF {
			break
		}
		out = append(out, tk.text)
	}
	return out
}

func TestLexAttributePathFolding(t *testing.T) {
	texts := lexTexts(t, "P.name")
	if len(texts) != 1 || texts[0] != "P.name" {
		t.Errorf("P.name lexed as %v", texts)
	}
	texts = lexTexts(t, "$ans.1.x")
	if len(texts) != 1 || texts[0] != "$ans.1.x" {
		t.Errorf("$ans.1.x lexed as %v", texts)
	}
	// Statement terminator after a variable: not part of the path.
	texts = lexTexts(t, "p(X).")
	want := []string{"p", "(", "X", ")", "."}
	if len(texts) != len(want) {
		t.Fatalf("p(X). lexed as %v", texts)
	}
	// Lower-case identifiers never take paths.
	texts = lexTexts(t, "abc.def")
	if len(texts) != 3 {
		t.Errorf("abc.def lexed as %v (dot must separate)", texts)
	}
}

func TestLexNumberDotDisambiguation(t *testing.T) {
	kinds := lexKinds(t, "q(142).")
	// ident ( int ) dot
	if kinds[2] != tokInt || kinds[4] != tokDot {
		t.Errorf("q(142). kinds = %v", kinds)
	}
	kinds = lexKinds(t, "q(1.5).")
	if kinds[2] != tokFloat {
		t.Errorf("q(1.5). kinds = %v", kinds)
	}
	texts := lexTexts(t, "1.5e3")
	if len(texts) != 1 || texts[0] != "1.5e3" {
		t.Errorf("scientific notation lexed as %v", texts)
	}
	texts = lexTexts(t, "-42")
	if len(texts) != 1 || texts[0] != "-42" {
		t.Errorf("negative int lexed as %v", texts)
	}
	// Exponents without a decimal point (the %g rendering of large floats,
	// e.g. term.Float(1e6).String() == "1e+06") must lex as one float.
	for _, src := range []string{"1e+06", "1e6", "2E-3", "1.5e3", "-4e+2"} {
		kinds := lexKinds(t, src)
		if len(kinds) != 1 || kinds[0] != tokFloat {
			t.Errorf("%q lexed as %v, want one float", src, kinds)
		}
	}
	// 'e' not followed by a digit stays an identifier boundary.
	if texts := lexTexts(t, "1east"); len(texts) != 2 || texts[0] != "1" {
		t.Errorf("1east lexed as %v", texts)
	}
}

func TestLexOperators(t *testing.T) {
	for src, kind := range map[string]tokenKind{
		"=":  tokRelOp,
		"==": tokRelOp,
		"!=": tokRelOp,
		"<>": tokRelOp,
		"<=": tokRelOp,
		">=": tokRelOp,
		"=<": tokRelOp,
		"<":  tokRelOp,
		">":  tokRelOp,
		"=>": tokImplies,
		":-": tokIf,
		"?-": tokQuery,
		":":  tokColon,
		"&":  tokAmp,
	} {
		kinds := lexKinds(t, src)
		if len(kinds) != 1 || kinds[0] != kind {
			t.Errorf("%q lexed as %v, want %v", src, kinds, kind)
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	texts := lexTexts(t, `'it\'s' "tab\there"`)
	if texts[0] != "it's" {
		t.Errorf("escaped quote: %q", texts[0])
	}
	if texts[1] != "tab\there" {
		t.Errorf("escaped tab: %q", texts[1])
	}
	if _, err := lexAll("'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
}

func TestLexComments(t *testing.T) {
	kinds := lexKinds(t, "% whole line\np(X). # trailing\n// also this\nq(Y).")
	count := 0
	for _, k := range kinds {
		if k == tokIdent {
			count++
		}
	}
	if count != 2 {
		t.Errorf("comments leaked tokens: %v", kinds)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := lexAll("p(X).\nbad?")
	if err != nil {
		// '?' alone on line 2 is an error at next() time only when reached;
		// lexAll stops at the error.
		return
	}
	_ = toks
}

func TestLexErrorPosition(t *testing.T) {
	_, err := lexAll("p(X).\n  @")
	if err == nil {
		t.Fatal("@ should fail")
	}
	if got := err.Error(); got[:4] != "2:3:" {
		t.Errorf("error position = %q, want 2:3 prefix", got)
	}
}

func TestLexUnicodeIdentifiers(t *testing.T) {
	texts := lexTexts(t, "café(Ärger)")
	if texts[0] != "café" || texts[2] != "Ärger" {
		t.Errorf("unicode lexing: %v", texts)
	}
	// Uppercase unicode starts a variable.
	kinds := lexKinds(t, "Ärger")
	if kinds[0] != tokVar {
		t.Errorf("Ärger kind = %v, want var", kinds[0])
	}
}

// refLexAll is lexAll over refLexer.
func refLexAll(src string) ([]token, error) {
	lx := newRefLexer(src)
	var toks []token
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

// lexerCorpus seeds FuzzLexer and FuzzPreparedMatchesParse.
var lexerCorpus = []string{
	// FuzzParseProgram's corpus
	"p(X).",
	"m(A, C) :- p(A, B), q(B, C).",
	"p(A, B) :- in($ans, d1:p_ff()), =($ans.1, A), =($ans.2, B).",
	"Dist > 142 => spatial:range('map1', X, Y, Dist) = spatial:range('points', X, Y, 142).",
	"V1 <= V2 => relation:select_lt(T, A, V2) >= relation:select_lt(T, A, V1).",
	"q(142).",
	"v(Y) :- X = 'k', in(Y, d:f(X)).",
	"p('unterminated",
	"p(A :- q(A).",
	"% comment only",
	"?-",
	"=>",
	"p(1.5e3, -2, true, false, 'str', X.a.b).",
	"\x00\x01\x02",
	"p(((((",
	"a :- b & c & d & e.",
	// escapes, invalid UTF-8, non-ASCII letters and digits, operators
	`'it\'s' "tab\there" 'a\nb' 'q\"' "\\"`, `'end\`, "'a\\",
	"'bad \xff byte' 'x\xc3' '\xe2\x82' 'é\\\xff'", "\xff", "p(\xc3)", "'\xe2\x82",
	"'\xef\xbf\xbd'", "\xef\xbf\xbd",
	"café(Ärger, ٣٤, 1٢.5e٣) :- Ünï.ä.1 != 'ñ'.",
	"a <> b =< c == d >= e <= f < g > h => i :- j ?- k != l",
	"x !> y", "x !< y", "x ! y",
	"1east 1e+5 -4e-2 2E3 3..4 5.e", "1e+", "-x",
	"// line\n# hash\n%pct\r\n\tp .\n  q", "p.\n  @",
	"\u2028p\u00a0(X)\u3000.",
}

// FuzzLexer: lexAll, which slices the source string, yields exactly the
// tokens — kinds, texts, lines, columns — and the error text of the
// rune-slice lexer it replaced.
func FuzzLexer(f *testing.F) {
	for _, s := range lexerCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, gotErr := lexAll(src)
		want, wantErr := refLexAll(src)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("lex %q: error %v, reference %v", src, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("lex %q: %d tokens, reference %d\n%v\n%v", src, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("lex %q: token %d = %+v, reference %+v", src, i, got[i], want[i])
			}
		}
	})
}

// refLexer is the rune-slice lexer lexAll replaced, kept verbatim (renamed)
// as FuzzLexer's reference: it tokenizes mediator language source.
type refLexer struct {
	src  []rune
	pos  int
	line int
	col  int
}

func newRefLexer(src string) *refLexer {
	return &refLexer{src: []rune(src), line: 1, col: 1}
}

func (lx *refLexer) errorf(line, col int, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (lx *refLexer) peek() rune {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *refLexer) peekAt(off int) rune {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *refLexer) advance() rune {
	r := lx.src[lx.pos]
	lx.pos++
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

func refIsIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_' || r == '$'
}

func refIsIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

func refIsVarStart(r rune) bool {
	return unicode.IsUpper(r) || r == '_' || r == '$'
}

func (lx *refLexer) skipSpaceAndComments() {
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
func (lx *refLexer) next() (token, error) {
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
	case refIsIdentStart(r):
		return lx.scanWord(mk)
	}
	return token{}, lx.errorf(line, col, "unexpected character %q", r)
}

func (lx *refLexer) scanOperator(mk func(tokenKind, string) token) (token, error) {
	r := lx.advance()
	two := string(r)
	if n := lx.peek(); n == '=' || n == '>' || n == '<' {
		two += string(n)
	}
	switch two {
	case "=>":
		lx.advance()
		return mk(tokImplies, "=>"), nil
	case "==", "!=", "<>", "<=", ">=", "=<":
		lx.advance()
		return mk(tokRelOp, two), nil
	}
	switch r {
	case '=', '<', '>':
		return mk(tokRelOp, string(r)), nil
	}
	return token{}, lx.errorf(mk(0, "").line, mk(0, "").col, "unexpected character %q", r)
}

func (lx *refLexer) scanString(mk func(tokenKind, string) token) (token, error) {
	quote := lx.advance()
	var b strings.Builder
	for {
		if lx.pos >= len(lx.src) {
			t := mk(tokString, "")
			return token{}, lx.errorf(t.line, t.col, "unterminated string")
		}
		r := lx.advance()
		if r == quote {
			break
		}
		if r == '\\' && lx.pos < len(lx.src) {
			esc := lx.advance()
			switch esc {
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
	return mk(tokString, b.String()), nil
}

func (lx *refLexer) scanNumber(mk func(tokenKind, string) token) (token, error) {
	var b strings.Builder
	if lx.peek() == '-' {
		b.WriteRune(lx.advance())
	}
	for lx.pos < len(lx.src) && unicode.IsDigit(lx.peek()) {
		b.WriteRune(lx.advance())
	}
	isFloat := false
	// A '.' is part of the number only when followed by a digit; otherwise it
	// is the statement terminator (e.g. "q(142)." ).
	if lx.peek() == '.' && unicode.IsDigit(lx.peekAt(1)) {
		isFloat = true
		b.WriteRune(lx.advance())
		for lx.pos < len(lx.src) && unicode.IsDigit(lx.peek()) {
			b.WriteRune(lx.advance())
		}
	}
	// An exponent may follow either form ("1.5e3", "1e+06") when a digit
	// (optionally signed) comes after the 'e'.
	if e := lx.peek(); e == 'e' || e == 'E' {
		n1, n2 := lx.peekAt(1), lx.peekAt(2)
		if unicode.IsDigit(n1) || ((n1 == '+' || n1 == '-') && unicode.IsDigit(n2)) {
			isFloat = true
			b.WriteRune(lx.advance()) // e
			if lx.peek() == '+' || lx.peek() == '-' {
				b.WriteRune(lx.advance())
			}
			for lx.pos < len(lx.src) && unicode.IsDigit(lx.peek()) {
				b.WriteRune(lx.advance())
			}
		}
	}
	if isFloat {
		return mk(tokFloat, b.String()), nil
	}
	return mk(tokInt, b.String()), nil
}

// scanWord scans identifiers and variables. Variables may carry an
// attribute path: the lexer folds "P.name" or "$ans.1" into a single tokVar
// whose text contains the dots, disambiguating the path dot from the
// statement terminator (a terminator dot is never directly followed by an
// identifier or digit belonging to the same variable reference, because
// attribute access requires no intervening whitespace).
func (lx *refLexer) scanWord(mk func(tokenKind, string) token) (token, error) {
	var b strings.Builder
	first := lx.advance()
	b.WriteRune(first)
	for lx.pos < len(lx.src) && refIsIdentRune(lx.peek()) {
		b.WriteRune(lx.advance())
	}
	isVar := refIsVarStart(first)
	if isVar {
		for lx.peek() == '.' && (refIsIdentRune(lx.peekAt(1)) || unicode.IsDigit(lx.peekAt(1))) {
			b.WriteRune(lx.advance()) // '.'
			for lx.pos < len(lx.src) && refIsIdentRune(lx.peek()) {
				b.WriteRune(lx.advance())
			}
		}
		return mk(tokVar, b.String()), nil
	}
	return mk(tokIdent, b.String()), nil
}
