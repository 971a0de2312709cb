package dsl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"github.com/guardrail-db/guardrail/internal/dataset"
)

// Format renders p in the paper's surface syntax, resolving attribute names
// and literal strings through rel's dictionaries:
//
//	GIVEN PostalCode ON City HAVING
//	  IF PostalCode = "94704" THEN City <- "Berkeley";
func Format(p *Program, rel *dataset.Relation) string {
	var b strings.Builder
	for i, s := range p.Stmts {
		if i > 0 {
			b.WriteByte('\n')
		}
		FormatStatement(&b, s, rel)
	}
	return b.String()
}

// FormatStatement renders one statement into b.
func FormatStatement(b *strings.Builder, s Statement, rel *dataset.Relation) {
	b.WriteString("GIVEN ")
	for i, g := range s.Given {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(rel.Attr(g))
	}
	fmt.Fprintf(b, " ON %s HAVING\n", rel.Attr(s.On))
	for _, br := range s.Branches {
		b.WriteString("  IF ")
		for i, pr := range br.Cond {
			if i > 0 {
				b.WriteString(" AND ")
			}
			fmt.Fprintf(b, "%s = %q", rel.Attr(pr.Attr), rel.Dict(pr.Attr).Value(pr.Value))
		}
		fmt.Fprintf(b, " THEN %s <- %q;\n", rel.Attr(s.On), rel.Dict(s.On).Value(br.Value))
	}
}

// AttrName resolves attribute index a through rel, falling back to a
// positional placeholder when rel is nil (tooling over schema-less
// programs, e.g. the analyzer's unit tests).
func AttrName(a int, rel *dataset.Relation) string {
	if rel == nil || a < 0 || a >= rel.NumAttrs() {
		return fmt.Sprintf("attr#%d", a)
	}
	return rel.Attr(a)
}

// LiteralString resolves literal code v of attribute a through rel's
// dictionary, falling back to the raw code when rel is nil or the code is
// out of range.
func LiteralString(a int, v int32, rel *dataset.Relation) string {
	if rel != nil && a >= 0 && a < rel.NumAttrs() && (v == dataset.Missing || (v >= 0 && int(v) < rel.Cardinality(a))) {
		return fmt.Sprintf("%q", rel.Dict(a).Value(v))
	}
	return fmt.Sprintf("code(%d)", v)
}

// FormatCondition renders c in the surface syntax ('a = "x" AND b = "y"'),
// resolving names through rel when non-nil. The empty condition renders as
// "TRUE" (it matches every row).
func FormatCondition(c Condition, rel *dataset.Relation) string {
	if len(c) == 0 {
		return "TRUE"
	}
	var b strings.Builder
	for i, pr := range c {
		if i > 0 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "%s = %s", AttrName(pr.Attr, rel), LiteralString(pr.Attr, pr.Value, rel))
	}
	return b.String()
}

// FormatBranch renders one branch ("IF c THEN a <- l") for diagnostics.
func FormatBranch(br Branch, on int, rel *dataset.Relation) string {
	return fmt.Sprintf("IF %s THEN %s <- %s",
		FormatCondition(br.Cond, rel), AttrName(on, rel), LiteralString(on, br.Value, rel))
}

// --- parser ---

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokString
	tokEq
	tokArrow
	tokSemi
	tokComma
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src []rune
	i   int
}

func (l *lexer) next() (token, error) {
	for l.i < len(l.src) && unicode.IsSpace(l.src[l.i]) {
		l.i++
	}
	if l.i >= len(l.src) {
		return token{kind: tokEOF, pos: l.i}, nil
	}
	start := l.i
	c := l.src[l.i]
	switch {
	case c == '=':
		l.i++
		return token{kind: tokEq, text: "=", pos: start}, nil
	case c == ';':
		l.i++
		return token{kind: tokSemi, text: ";", pos: start}, nil
	case c == ',':
		l.i++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case c == '<':
		if l.i+1 < len(l.src) && l.src[l.i+1] == '-' {
			l.i += 2
			return token{kind: tokArrow, text: "<-", pos: start}, nil
		}
		return token{}, fmt.Errorf("dsl: unexpected '<' at %d", start)
	case c == '"':
		// Scan to the matching unescaped quote, then decode with
		// strconv.Unquote so the lexer exactly inverts Format's %q.
		j := l.i + 1
		for j < len(l.src) && l.src[j] != '"' {
			if l.src[j] == '\\' && j+1 < len(l.src) {
				j++
			}
			j++
		}
		if j >= len(l.src) {
			return token{}, fmt.Errorf("dsl: unterminated string at %d", start)
		}
		raw := string(l.src[l.i : j+1])
		decoded, err := strconv.Unquote(raw)
		if err != nil {
			return token{}, fmt.Errorf("dsl: bad string literal at %d: %v", start, err)
		}
		l.i = j + 1
		return token{kind: tokString, text: decoded, pos: start}, nil
	case unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_':
		for l.i < len(l.src) && (unicode.IsLetter(l.src[l.i]) || unicode.IsDigit(l.src[l.i]) || l.src[l.i] == '_' || l.src[l.i] == '-' && l.i+1 < len(l.src) && unicode.IsDigit(l.src[l.i+1])) {
			l.i++
		}
		return token{kind: tokIdent, text: string(l.src[start:l.i]), pos: start}, nil
	default:
		return token{}, fmt.Errorf("dsl: unexpected character %q at %d", c, start)
	}
}

type parser struct {
	lex lexer
	cur token
	rel *dataset.Relation
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.cur = t
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	if p.cur.kind != tokIdent || !strings.EqualFold(p.cur.text, kw) {
		return fmt.Errorf("dsl: expected %q at %d, got %q", kw, p.cur.pos, p.cur.text)
	}
	return p.advance()
}

func (p *parser) isKeyword(kw string) bool {
	return p.cur.kind == tokIdent && strings.EqualFold(p.cur.text, kw)
}

func (p *parser) attr() (int, error) {
	if p.cur.kind != tokIdent {
		return 0, fmt.Errorf("dsl: expected attribute name at %d, got %q", p.cur.pos, p.cur.text)
	}
	idx := p.rel.AttrIndex(p.cur.text)
	if idx < 0 {
		return 0, fmt.Errorf("dsl: unknown attribute %q at %d", p.cur.text, p.cur.pos)
	}
	return idx, p.advance()
}

// literal reads a quoted string or bare identifier and interns it into the
// given attribute's dictionary (interning never changes existing codes).
func (p *parser) literal(attr int) (int32, error) {
	if p.cur.kind != tokString && p.cur.kind != tokIdent {
		return 0, fmt.Errorf("dsl: expected literal at %d, got %q", p.cur.pos, p.cur.text)
	}
	code := p.rel.Intern(attr, p.cur.text)
	return code, p.advance()
}

// Parse reads a program in the surface syntax, resolving names against rel.
// Literal values not yet present in a column's dictionary are interned.
func Parse(src string, rel *dataset.Relation) (*Program, error) {
	p := &parser{lex: lexer{src: []rune(src)}, rel: rel}
	if err := p.advance(); err != nil {
		return nil, err
	}
	prog := &Program{}
	for p.cur.kind != tokEOF {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, s)
	}
	if err := prog.Validate(rel); err != nil {
		return nil, err
	}
	return prog, nil
}

func (p *parser) statement() (Statement, error) {
	var s Statement
	if err := p.expectKeyword("GIVEN"); err != nil {
		return s, err
	}
	for {
		a, err := p.attr()
		if err != nil {
			return s, err
		}
		s.Given = append(s.Given, a)
		if p.cur.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return s, err
		}
	}
	if err := p.expectKeyword("ON"); err != nil {
		return s, err
	}
	on, err := p.attr()
	if err != nil {
		return s, err
	}
	s.On = on
	if err := p.expectKeyword("HAVING"); err != nil {
		return s, err
	}
	for p.isKeyword("IF") {
		b, err := p.branch(on)
		if err != nil {
			return s, err
		}
		s.Branches = append(s.Branches, b)
	}
	if len(s.Branches) == 0 {
		return s, fmt.Errorf("dsl: statement for %s has no branches", p.rel.Attr(on))
	}
	return s, nil
}

func (p *parser) branch(on int) (Branch, error) {
	var b Branch
	if err := p.expectKeyword("IF"); err != nil {
		return b, err
	}
	for {
		a, err := p.attr()
		if err != nil {
			return b, err
		}
		if p.cur.kind != tokEq {
			return b, fmt.Errorf("dsl: expected '=' at %d", p.cur.pos)
		}
		if err := p.advance(); err != nil {
			return b, err
		}
		v, err := p.literal(a)
		if err != nil {
			return b, err
		}
		b.Cond = append(b.Cond, Pred{Attr: a, Value: v})
		if !p.isKeyword("AND") {
			break
		}
		if err := p.advance(); err != nil {
			return b, err
		}
	}
	if err := p.expectKeyword("THEN"); err != nil {
		return b, err
	}
	onAttr, err := p.attr()
	if err != nil {
		return b, err
	}
	if onAttr != on {
		return b, fmt.Errorf("dsl: THEN assigns %s, statement is ON %s", p.rel.Attr(onAttr), p.rel.Attr(on))
	}
	if p.cur.kind != tokArrow {
		return b, fmt.Errorf("dsl: expected '<-' at %d", p.cur.pos)
	}
	if err := p.advance(); err != nil {
		return b, err
	}
	v, err := p.literal(on)
	if err != nil {
		return b, err
	}
	b.Value = v
	if p.cur.kind == tokSemi {
		if err := p.advance(); err != nil {
			return b, err
		}
	}
	return b, nil
}
