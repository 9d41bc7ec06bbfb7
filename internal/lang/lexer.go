// Package lang implements the textual front end of the subsystem: a shared
// lexer and recursive-descent parsers for the CL constraint language, the
// extended relational algebra program language (used for rule actions and
// transactions), the RL integrity rule language (WHEN ... IF NOT ... THEN
// ...), and a small DDL for declaring relation schemas.
package lang

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokPunct // single/multi-char punctuation and operators
)

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset, for error messages
}

// lexer tokenizes an input string up front so parsers can backtrack by
// index.
type lexer struct {
	src    string
	tokens []token
}

// multi-character operators, longest first.
var operators = []string{":=", "<=", ">=", "<>", "==", "=>", "(", ")", "[", "]", "{", "}", ",", ";", ":", ".", "#", "=", "<", ">", "+", "-", "*", "/"}

func lex(src string) (*lexer, error) {
	l := &lexer{src: src, tokens: make([]token, 0, tokenEstimate(src))}
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-': // line comment
			for i < n && src[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i])) || src[i] == '_') {
				i++
			}
			l.tokens = append(l.tokens, token{tokIdent, src[start:i], start})
		case unicode.IsDigit(rune(c)):
			start := i
			isFloat := false
			for i < n && unicode.IsDigit(rune(src[i])) {
				i++
			}
			if i+1 < n && src[i] == '.' && unicode.IsDigit(rune(src[i+1])) {
				isFloat = true
				i++
				for i < n && unicode.IsDigit(rune(src[i])) {
					i++
				}
			}
			if i < n && (src[i] == 'e' || src[i] == 'E') {
				j := i + 1
				if j < n && (src[j] == '+' || src[j] == '-') {
					j++
				}
				if j < n && unicode.IsDigit(rune(src[j])) {
					isFloat = true
					i = j
					for i < n && unicode.IsDigit(rune(src[i])) {
						i++
					}
				}
			}
			kind := tokInt
			if isFloat {
				kind = tokFloat
			}
			l.tokens = append(l.tokens, token{kind, src[start:i], start})
		case c == '"' || c == '\'':
			quote := c
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < n {
				if src[i] == '\\' && i+1 < n {
					switch src[i+1] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					case '\\':
						sb.WriteByte('\\')
					case quote:
						sb.WriteByte(quote)
					case 'a', 'b', 'f', 'r', 'v', 'x', 'u', 'U':
						// The other escapes strconv.Quote writes, so a
						// printed string constant lexes back to itself.
						r, multibyte, tail, err := strconv.UnquoteChar(src[i:], quote)
						if err != nil {
							sb.WriteByte(src[i+1])
							break
						}
						if multibyte {
							sb.WriteRune(r)
						} else {
							sb.WriteByte(byte(r))
						}
						i = n - len(tail)
						continue
					default:
						sb.WriteByte(src[i+1])
					}
					i += 2
					continue
				}
				if src[i] == quote {
					closed = true
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("lang: unterminated string at offset %d", start)
			}
			l.tokens = append(l.tokens, token{tokString, sb.String(), start})
		default:
			matched := false
			for _, op := range operators {
				if strings.HasPrefix(src[i:], op) {
					l.tokens = append(l.tokens, token{tokPunct, op, i})
					i += len(op)
					matched = true
					break
				}
			}
			if !matched {
				return nil, fmt.Errorf("lang: unexpected character %q at offset %d", c, i)
			}
		}
	}
	l.tokens = append(l.tokens, token{tokEOF, "", n})
	return l, nil
}

// tokenEstimate sizes the token slice up front: about one token per two
// bytes of source, counting a string literal, however long, as one token.
// Escaped quotes are not decoded; the estimate only has to be close.
func tokenEstimate(src string) int {
	n := len(src)
	for rest := src; ; {
		i := strings.IndexAny(rest, `"'`)
		if i < 0 {
			break
		}
		j := strings.IndexByte(rest[i+1:], rest[i])
		if j < 0 {
			break
		}
		n -= j
		rest = rest[i+j+2:]
	}
	return n/2 + 2
}

// MaxDepth bounds how deeply any text may nest, in every grammar: each
// nested algebra expression, parenthesised formula, term or scalar, and each
// prefix operator (not, unary minus, the right side of implies) is one
// level. The deepest text the engine writes itself — the programs pinned in
// testdata/enforcement.golden and the difftest generator's rules and
// transactions — nests under 10 levels, so the bound is two orders of
// magnitude above real use while keeping the parser's recursion, and every
// recursive walk over what it builds, far from the goroutine stack limit.
const MaxDepth = 1000

// ErrTooDeep is wrapped, with the position, by the error of every parse of
// a text that nests deeper than MaxDepth.
var ErrTooDeep = errors.New("nesting deeper than lang.MaxDepth")

// parser walks the token stream with index-based backtracking.
type parser struct {
	lx    *lexer
	pos   int
	depth int // nesting levels entered, at most MaxDepth
	// closes maps each "(" token to the index of its matching ")" (-1 when
	// unmatched; other tokens -1), computed on first use (closing).
	closes []int
	// consumed counts token advances, backtracked ones included: the
	// parser's work, which tests bound by the token count.
	consumed int
}

// enter descends one nesting level; the caller defers leave when it
// succeeds. Past MaxDepth it fails with ErrTooDeep, so hostile nesting is
// an error rather than a stack overflow.
func (p *parser) enter() error {
	if p.depth == MaxDepth {
		return p.errAt(ErrTooDeep)
	}
	p.depth++
	return nil
}

func (p *parser) leave() { p.depth-- }

func newParser(src string) (*parser, error) {
	lx, err := lex(src)
	if err != nil {
		return nil, err
	}
	return &parser{lx: lx}, nil
}

func (p *parser) peek() token { return p.lx.tokens[p.pos] }

func (p *parser) next() token {
	t := p.lx.tokens[p.pos]
	if t.kind != tokEOF {
		p.advance()
	}
	return t
}

// advance moves past the current token.
func (p *parser) advance() {
	p.pos++
	p.consumed++
}

func (p *parser) save() int        { return p.pos }
func (p *parser) restore(mark int) { p.pos = mark }

// closing returns the index of the ")" token matching the "(" token at i,
// or -1 when it has none. The matches are computed once per text.
func (p *parser) closing(i int) int {
	if p.closes == nil {
		p.closes = make([]int, len(p.lx.tokens))
		var open []int
		for j, t := range p.lx.tokens {
			p.closes[j] = -1
			switch {
			case t.kind != tokPunct:
			case t.text == "(":
				open = append(open, j)
			case t.text == ")" && len(open) > 0:
				p.closes[open[len(open)-1]] = j
				open = open[:len(open)-1]
			}
		}
	}
	return p.closes[i]
}

// atKeyword reports whether the current token is the given keyword
// (case-insensitive identifier match).
func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// acceptKeyword consumes the keyword if present.
func (p *parser) acceptKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

// expectKeyword consumes the keyword or fails.
func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %q", kw)
	}
	return nil
}

// atPunct reports whether the current token is the given punctuation.
func (p *parser) atPunct(op string) bool {
	t := p.peek()
	return t.kind == tokPunct && t.text == op
}

// acceptPunct consumes the punctuation if present.
func (p *parser) acceptPunct(op string) bool {
	if p.atPunct(op) {
		p.advance()
		return true
	}
	return false
}

// expectPunct consumes the punctuation or fails.
func (p *parser) expectPunct(op string) error {
	if !p.acceptPunct(op) {
		return p.errf("expected %q", op)
	}
	return nil
}

// expectIdent consumes and returns an identifier.
func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier")
	}
	p.advance()
	return t.text, nil
}

// errf formats a parse error with source context.
func (p *parser) errf(format string, args ...any) error {
	return p.errAt(fmt.Errorf(format, args...))
}

// errAt wraps err with the position of the current token.
func (p *parser) errAt(err error) error {
	t := p.peek()
	where := t.text
	if t.kind == tokEOF {
		where = "end of input"
	}
	line := 1
	col := 1
	for i := 0; i < t.pos && i < len(p.lx.src); i++ {
		if p.lx.src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("lang: %w at %d:%d (near %q)", err, line, col, where)
}

// expectEOF fails if input remains.
func (p *parser) expectEOF() error {
	if p.peek().kind != tokEOF {
		return p.errf("unexpected trailing input")
	}
	return nil
}

// parseIntText converts an integer token.
func parseIntText(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }

// parseFloatText converts a float token.
func parseFloatText(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
