// Package script implements the analysis scripting language of the IPA
// framework — the stand-in for the PNUTS scripts of the paper's §3.5.
//
// The language is a small, dynamically typed, C-syntax scripting language:
// numbers, strings, booleans, nil, arrays, maps, first-class functions with
// closures, if/while/for control flow, and host-object bindings through
// which scripts fill AIDA histograms and inspect dataset records. Scripts
// are shipped from the client to the analysis engines as source, compiled
// on arrival, and can be replaced between runs ("the new analysis code can
// be dynamically reloaded", §3.6).
//
// The interpreter is deterministic and fuel-limited so a runaway user
// script cannot wedge a worker node.
//
// Records reach process(ev) as values a RecordDecoder builds, and a
// script may keep any of them, or anything reached through their members,
// for as long as it likes. Analysis decodes each record afresh unless it
// can tell that nothing will be kept: process is a top-level function
// that uses its parameter, and the for-each variables bound from its
// members, only to read members, iterates a member that shares the
// object's storage (Member.Ref) instead of reading it, holds no function
// literal, and none of those variables names a bound global. Then, while
// process stays that function, Analysis decodes only the first record
// and refills that value in place (Refiller) with every later one. A
// member unknown to RegisterMembers counts as shared.
package script

import "fmt"

// Pos is a source position (1-based).
type Pos struct {
	Line int
	Col  int
}

// String formats the position like compilers do.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// tokKind enumerates token types.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString

	// Keywords.
	tokFunction
	tokIf
	tokElse
	tokWhile
	tokFor
	tokReturn
	tokBreak
	tokContinue
	tokTrue
	tokFalse
	tokNil

	// Punctuation and operators.
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokLBracket
	tokRBracket
	tokComma
	tokSemicolon
	tokColon
	tokDot
	tokQuestion

	tokAssign      // =
	tokPlusAssign  // +=
	tokMinusAssign // -=
	tokStarAssign  // *=
	tokSlashAssign // /=

	tokOr  // ||
	tokAnd // &&
	tokNot // !

	tokEq // ==
	tokNe // !=
	tokLt
	tokLe
	tokGt
	tokGe

	tokPlus
	tokMinus
	tokStar
	tokSlash
	tokPercent
)

var keywords = map[string]tokKind{
	"function": tokFunction,
	"if":       tokIf,
	"else":     tokElse,
	"while":    tokWhile,
	"for":      tokFor,
	"return":   tokReturn,
	"break":    tokBreak,
	"continue": tokContinue,
	"true":     tokTrue,
	"false":    tokFalse,
	"nil":      tokNil,
	"null":     tokNil, // PNUTS spelling
}

var tokNames = map[tokKind]string{
	tokEOF: "end of input", tokIdent: "identifier", tokNumber: "number", tokString: "string",
	tokFunction: "'function'", tokIf: "'if'", tokElse: "'else'", tokWhile: "'while'",
	tokFor: "'for'", tokReturn: "'return'", tokBreak: "'break'", tokContinue: "'continue'",
	tokTrue: "'true'", tokFalse: "'false'", tokNil: "'nil'",
	tokLParen: "'('", tokRParen: "')'", tokLBrace: "'{'", tokRBrace: "'}'",
	tokLBracket: "'['", tokRBracket: "']'", tokComma: "','", tokSemicolon: "';'",
	tokColon: "':'", tokDot: "'.'", tokQuestion: "'?'",
	tokAssign: "'='", tokPlusAssign: "'+='", tokMinusAssign: "'-='",
	tokStarAssign: "'*='", tokSlashAssign: "'/='",
	tokOr: "'||'", tokAnd: "'&&'", tokNot: "'!'",
	tokEq: "'=='", tokNe: "'!='", tokLt: "'<'", tokLe: "'<='", tokGt: "'>'", tokGe: "'>='",
	tokPlus: "'+'", tokMinus: "'-'", tokStar: "'*'", tokSlash: "'/'", tokPercent: "'%'",
}

func (k tokKind) String() string {
	if s, ok := tokNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// token is one lexeme.
type token struct {
	kind tokKind
	pos  Pos
	text string  // identifiers, strings (unescaped)
	num  float64 // numbers
}

// SyntaxError reports a compile-time problem with its position.
type SyntaxError struct {
	Pos Pos
	Msg string
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("script:%s: %s", e.Pos, e.Msg) }

// lexer scans source into tokens.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (l *lexer) errf(pos Pos, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *lexer) peekByte2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peekByte2() == '/':
			for l.off < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.peekByte2() == '*':
			start := Pos{l.line, l.col}
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peekByte() == '*' && l.peekByte2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	pos := Pos{l.line, l.col}
	if l.off >= len(l.src) {
		return token{kind: tokEOF, pos: pos}, nil
	}
	c := l.peekByte()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && (isIdentStart(l.peekByte()) || isDigit(l.peekByte())) {
			l.advance()
		}
		word := l.src[start:l.off]
		if kw, ok := keywords[word]; ok {
			return token{kind: kw, pos: pos, text: word}, nil
		}
		return token{kind: tokIdent, pos: pos, text: word}, nil
	case isDigit(c), c == '.' && isDigit(l.peekByte2()):
		return l.scanNumber(pos)
	case c == '"':
		return l.scanString(pos)
	}
	l.advance()
	two := func(second byte, withKind, withoutKind tokKind) (token, error) {
		if l.peekByte() == second {
			l.advance()
			return token{kind: withKind, pos: pos}, nil
		}
		return token{kind: withoutKind, pos: pos}, nil
	}
	switch c {
	case '(':
		return token{kind: tokLParen, pos: pos}, nil
	case ')':
		return token{kind: tokRParen, pos: pos}, nil
	case '{':
		return token{kind: tokLBrace, pos: pos}, nil
	case '}':
		return token{kind: tokRBrace, pos: pos}, nil
	case '[':
		return token{kind: tokLBracket, pos: pos}, nil
	case ']':
		return token{kind: tokRBracket, pos: pos}, nil
	case ',':
		return token{kind: tokComma, pos: pos}, nil
	case ';':
		return token{kind: tokSemicolon, pos: pos}, nil
	case ':':
		return token{kind: tokColon, pos: pos}, nil
	case '.':
		return token{kind: tokDot, pos: pos}, nil
	case '?':
		return token{kind: tokQuestion, pos: pos}, nil
	case '=':
		return two('=', tokEq, tokAssign)
	case '!':
		return two('=', tokNe, tokNot)
	case '<':
		return two('=', tokLe, tokLt)
	case '>':
		return two('=', tokGe, tokGt)
	case '+':
		return two('=', tokPlusAssign, tokPlus)
	case '-':
		return two('=', tokMinusAssign, tokMinus)
	case '*':
		return two('=', tokStarAssign, tokStar)
	case '/':
		return two('=', tokSlashAssign, tokSlash)
	case '%':
		return token{kind: tokPercent, pos: pos}, nil
	case '&':
		if l.peekByte() == '&' {
			l.advance()
			return token{kind: tokAnd, pos: pos}, nil
		}
		return token{}, l.errf(pos, "unexpected '&' (use '&&')")
	case '|':
		if l.peekByte() == '|' {
			l.advance()
			return token{kind: tokOr, pos: pos}, nil
		}
		return token{}, l.errf(pos, "unexpected '|' (use '||')")
	}
	return token{}, l.errf(pos, "unexpected character %q", string(c))
}

func (l *lexer) scanNumber(pos Pos) (token, error) {
	start := l.off
	seenDot, seenExp := false, false
	for l.off < len(l.src) {
		c := l.peekByte()
		switch {
		case isDigit(c):
			l.advance()
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.advance()
		case (c == 'e' || c == 'E') && !seenExp:
			seenExp = true
			l.advance()
			if l.peekByte() == '+' || l.peekByte() == '-' {
				l.advance()
			}
		default:
			goto done
		}
	}
done:
	if l.off < len(l.src) && isIdentStart(l.peekByte()) {
		return token{}, l.errf(pos, "malformed number literal %q", l.src[start:l.off+1])
	}
	text := l.src[start:l.off]
	var v float64
	if _, err := fmt.Sscanf(text, "%g", &v); err != nil {
		return token{}, l.errf(pos, "bad number literal %q", text)
	}
	return token{kind: tokNumber, pos: pos, num: v, text: text}, nil
}

func (l *lexer) scanString(pos Pos) (token, error) {
	l.advance() // opening quote
	var out []byte
	for {
		if l.off >= len(l.src) {
			return token{}, l.errf(pos, "unterminated string")
		}
		c := l.advance()
		switch c {
		case '"':
			return token{kind: tokString, pos: pos, text: string(out)}, nil
		case '\n':
			return token{}, l.errf(pos, "newline in string")
		case '\\':
			if l.off >= len(l.src) {
				return token{}, l.errf(pos, "unterminated escape")
			}
			e := l.advance()
			switch e {
			case 'n':
				out = append(out, '\n')
			case 't':
				out = append(out, '\t')
			case 'r':
				out = append(out, '\r')
			case '"':
				out = append(out, '"')
			case '\\':
				out = append(out, '\\')
			default:
				return token{}, l.errf(pos, "unknown escape \\%c", e)
			}
		default:
			out = append(out, c)
		}
	}
}

// lexAll scans the whole source (used by the parser).
func lexAll(src string) ([]token, error) {
	l := newLexer(src)
	var toks []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}
