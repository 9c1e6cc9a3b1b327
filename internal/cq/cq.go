// Package cq implements a small Datalog-style conjunctive-query text
// format over the paper's machinery:
//
//	ans(X, Z) :- ab(X, Y), bc(Y, Z).
//
// A query is a head atom, ":-", and a comma-separated body of atoms
// over variables (uppercase-initial identifiers). Each body predicate
// names a stored relation in the schema parser's notation, with "_"
// standing in for the space of the multi-character style: "ab" is the
// paper's compact relation over attributes a and b, "user_id" the
// relation over attributes user and id. Variables bind positionally to
// the predicate's attributes in written order.
//
// The package is deliberately small: no constants, no negation, no
// repeated variables within an atom, no rules — exactly the
// select-project-join fragment the paper's GYO classification and
// tree-query machinery decides. Compilation builds the query's
// hypergraph over a per-query variable universe and hands it to the
// library's one planner, core.PlanQuery (see Compile).
//
// A Compiled query is also the serving layer's one plan form: a
// (schema, X) solve is the conjunctive query with one atom per relation
// and head X, and Lower builds that Compiled directly, so both front
// ends share one plan cache — keyed by canonical text, Query.String or
// LoweredText — one binder and one run path.
package cq

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Limits on query size: the parser rejects anything larger before the
// planner spends work on it, so a hostile client cannot feed the server
// a pathological hypergraph.
const (
	// MaxBodyAtoms caps the number of body atoms per query.
	MaxBodyAtoms = 64
	// MaxVariables caps the number of distinct variables per query.
	MaxVariables = 256
)

// Pos is a source position within the query text.
type Pos struct {
	Offset int // byte offset, 0-based
	Line   int // 1-based
	Col    int // 1-based, counted in runes
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Error is a parse or compile error anchored to a source position, so
// clients can point at the offending token rather than guess.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("cq: %s: %s", e.Pos, e.Msg) }

func errAt(pos Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Var is one variable occurrence.
type Var struct {
	Name string
	Pos  Pos
}

// Atom is one atom: a predicate applied to variables.
type Atom struct {
	Pred string
	Pos  Pos
	Args []Var
}

// Query is a parsed conjunctive query: head :- body.
type Query struct {
	Head Atom
	Body []Atom
}

// String renders the query in canonical form — single spaces, ", "
// separators, a trailing "." — such that Parse(q.String()) yields a
// structurally identical query. The canonical text is the query's
// cache identity: the engine's plan cache is keyed by it.
func (q *Query) String() string {
	var b strings.Builder
	writeAtom(&b, &q.Head)
	b.WriteString(" :- ")
	for i := range q.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		writeAtom(&b, &q.Body[i])
	}
	b.WriteString(".")
	return b.String()
}

func writeAtom(b *strings.Builder, a *Atom) {
	b.WriteString(a.Pred)
	b.WriteString("(")
	for i, v := range a.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.Name)
	}
	b.WriteString(")")
}

// ---- lexer ----

type tokKind int

const (
	tokIdent tokKind = iota
	tokLParen
	tokRParen
	tokComma
	tokImplies // ":-"
	tokDot
	tokEOF
)

func (k tokKind) String() string {
	switch k {
	case tokIdent:
		return "identifier"
	case tokLParen:
		return "\"(\""
	case tokRParen:
		return "\")\""
	case tokComma:
		return "\",\""
	case tokImplies:
		return "\":-\""
	case tokDot:
		return "\".\""
	default:
		return "end of query"
	}
}

type token struct {
	kind tokKind
	text string
	pos  Pos
}

type lexer struct {
	src       string
	off       int
	line, col int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) pos() Pos { return Pos{Offset: l.off, Line: l.line, Col: l.col} }

// bump consumes one rune, tracking line/col.
func (l *lexer) bump() rune {
	r, w := utf8.DecodeRuneInString(l.src[l.off:])
	l.off += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *lexer) peek() rune {
	r, _ := utf8.DecodeRuneInString(l.src[l.off:])
	return r
}

func isIdentRune(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (l *lexer) next() (token, error) {
	for l.off < len(l.src) {
		switch r := l.peek(); r {
		case ' ', '\t', '\r', '\n':
			l.bump()
		default:
			goto scan
		}
	}
scan:
	pos := l.pos()
	if l.off >= len(l.src) {
		return token{kind: tokEOF, pos: pos}, nil
	}
	switch r := l.peek(); {
	case r == '(':
		l.bump()
		return token{kind: tokLParen, text: "(", pos: pos}, nil
	case r == ')':
		l.bump()
		return token{kind: tokRParen, text: ")", pos: pos}, nil
	case r == ',':
		l.bump()
		return token{kind: tokComma, text: ",", pos: pos}, nil
	case r == '.':
		l.bump()
		return token{kind: tokDot, text: ".", pos: pos}, nil
	case r == ':':
		l.bump()
		if l.peek() != '-' {
			return token{}, errAt(pos, "expected \":-\" (got \":%c\")", l.peek())
		}
		l.bump()
		return token{kind: tokImplies, text: ":-", pos: pos}, nil
	case isIdentRune(r):
		start := l.off
		for l.off < len(l.src) && isIdentRune(l.peek()) {
			l.bump()
		}
		return token{kind: tokIdent, text: l.src[start:l.off], pos: pos}, nil
	default:
		return token{}, errAt(pos, "unexpected character %q", r)
	}
}

// ---- parser ----

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) expect(k tokKind, context string) (token, error) {
	if p.tok.kind != k {
		return token{}, errAt(p.tok.pos, "expected %s %s, got %s", k, context, p.describe())
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) describe() string {
	if p.tok.kind == tokEOF {
		return "end of query"
	}
	return fmt.Sprintf("%q", p.tok.text)
}

// Parse parses one conjunctive query. Errors carry the line:column of
// the offending token.
func Parse(text string) (*Query, error) {
	p := &parser{lex: newLexer(text)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	head, err := p.atom("in the head")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokImplies, "after the head"); err != nil {
		return nil, err
	}
	var body []Atom
	for {
		a, err := p.atom("in the body")
		if err != nil {
			return nil, err
		}
		body = append(body, a)
		if p.tok.kind != tokComma {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokDot, "after the body"); err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, errAt(p.tok.pos, "trailing input after \".\"")
	}
	q := &Query{Head: head, Body: body}
	if err := q.validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// atom parses pred(V1, …, Vn).
func (p *parser) atom(context string) (Atom, error) {
	pred, err := p.expect(tokIdent, fmt.Sprintf("(a predicate) %s", context))
	if err != nil {
		return Atom{}, err
	}
	if r, _ := utf8.DecodeRuneInString(pred.text); unicode.IsUpper(r) {
		return Atom{}, errAt(pred.pos,
			"predicate %q must not be uppercase-initial (uppercase-initial identifiers are variables)", pred.text)
	}
	a := Atom{Pred: pred.text, Pos: pred.pos}
	if _, err := p.expect(tokLParen, fmt.Sprintf("after predicate %q", pred.text)); err != nil {
		return Atom{}, err
	}
	for {
		arg := p.tok
		if arg.kind != tokIdent {
			return Atom{}, errAt(arg.pos, "expected a variable in %s(...), got %s", pred.text, p.describe())
		}
		switch r, _ := utf8.DecodeRuneInString(arg.text); {
		case unicode.IsDigit(r):
			return Atom{}, errAt(arg.pos, "constants are not supported (%q in %s(...))", arg.text, pred.text)
		case !unicode.IsUpper(r):
			return Atom{}, errAt(arg.pos,
				"arguments must be variables — uppercase-initial identifiers (%q in %s(...))", arg.text, pred.text)
		}
		a.Args = append(a.Args, Var{Name: arg.text, Pos: arg.pos})
		if err := p.advance(); err != nil {
			return Atom{}, err
		}
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return Atom{}, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen, fmt.Sprintf("closing %s(...)", pred.text)); err != nil {
		return Atom{}, err
	}
	return a, nil
}

// validate enforces the semantic rules the grammar cannot: size bounds,
// no repeated variables within an atom, distinct head variables, and
// safety (every head variable bound in the body).
func (q *Query) validate() error {
	if len(q.Body) > MaxBodyAtoms {
		return errAt(q.Body[MaxBodyAtoms].Pos, "too many atoms (max %d)", MaxBodyAtoms)
	}
	bound := make(map[string]bool)
	nvars := 0
	for i := range q.Body {
		a := &q.Body[i]
		seen := make(map[string]bool, len(a.Args))
		for _, v := range a.Args {
			if seen[v.Name] {
				return errAt(v.Pos,
					"variable %s repeated within %s(...) (repeated variables in one atom are not supported)",
					v.Name, a.Pred)
			}
			seen[v.Name] = true
			if !bound[v.Name] {
				bound[v.Name] = true
				nvars++
				if nvars > MaxVariables {
					return errAt(v.Pos, "too many variables (max %d)", MaxVariables)
				}
			}
		}
	}
	headSeen := make(map[string]bool, len(q.Head.Args))
	for _, v := range q.Head.Args {
		if headSeen[v.Name] {
			return errAt(v.Pos, "head variable %s repeated", v.Name)
		}
		headSeen[v.Name] = true
		if !bound[v.Name] {
			return errAt(v.Pos, "unsafe head variable %s: not bound by any body atom", v.Name)
		}
	}
	return nil
}
