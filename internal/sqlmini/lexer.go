package sqlmini

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies lexical tokens.
type tokKind int

const (
	tokEOF tokKind = iota + 1
	tokIdent
	tokNumber
	tokString // 'single quoted'
	tokParam  // $name
	tokQMark  // ?
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokKind
	text string // identifiers are upper-cased except quoted ones
	raw  string // original spelling
	pos  int
}

// lexer tokenizes a SQL statement.
type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	if err := l.run(); err != nil {
		return nil, err
	}
	return l.toks, nil
}

func (l *lexer) run() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// line comment
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '\'':
			if err := l.lexString(); err != nil {
				return err
			}
		case c == '$':
			l.lexParam()
		case c == '?':
			l.emit(tokQMark, "?", 1)
		case isDigit(c):
			if err := l.lexNumber(); err != nil {
				return err
			}
		case isIdentStart(c):
			l.lexIdent()
		default:
			if !l.lexSymbol() {
				return fmt.Errorf("sqlmini: unexpected character %q at position %d", c, l.pos)
			}
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
	return nil
}

func (l *lexer) emit(k tokKind, text string, width int) {
	l.toks = append(l.toks, token{kind: k, text: text, raw: text, pos: l.pos})
	l.pos += width
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' is an escaped quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				sb.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: sb.String(), raw: l.src[start:l.pos], pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sqlmini: unterminated string literal at position %d", start)
}

func (l *lexer) lexParam() {
	start := l.pos
	l.pos++ // $
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	name := l.src[start+1 : l.pos]
	l.toks = append(l.toks, token{kind: tokParam, text: name, raw: l.src[start:l.pos], pos: start})
}

// lexNumber reads an integer literal. A decimal one is refused: the
// dialect has no DOUBLE.
func (l *lexer) lexNumber() error {
	start := l.pos
	for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
		l.pos++
	}
	if l.pos+1 < len(l.src) && l.src[l.pos] == '.' && isDigit(l.src[l.pos+1]) {
		end := l.pos + 1
		for end < len(l.src) && isDigit(l.src[end]) {
			end++
		}
		return fmt.Errorf("sqlmini: decimal number %s at position %d is not supported", l.src[start:end], start)
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], raw: l.src[start:l.pos], pos: start})
	return nil
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	raw := l.src[start:l.pos]
	l.toks = append(l.toks, token{kind: tokIdent, text: strings.ToUpper(raw), raw: raw, pos: start})
}

// two-char operators recognized before single-char ones.
var twoCharOps = []string{"<=", ">=", "<>", "!="}

func (l *lexer) lexSymbol() bool {
	rest := l.src[l.pos:]
	for _, op := range twoCharOps {
		if strings.HasPrefix(rest, op) {
			l.emit(tokSymbol, op, len(op))
			return true
		}
	}
	switch rest[0] {
	case '(', ')', ',', '=', '<', '>', '*', '.', ';', '+', '-':
		l.emit(tokSymbol, string(rest[0]), 1)
		return true
	}
	return false
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return c == '_' || isDigit(c) || unicode.IsLetter(rune(c))
}
