// Package frontend parses textual loop nests in the paper's §2.1 notation
// into analyzable programs: it extracts the iteration space (affine
// bounds, including max/min forms through multiple constraints), derives
// the uniform dependence vectors from the array references of the
// statement, and compiles the right-hand sides to the executor's statement
// (exec.Statement) — the one kernel the Go runtime evaluates and the code
// generator prints as C.
//
// Grammar (line oriented; '#' starts a comment):
//
//	let NAME = INT                        -- bind a size parameter
//	for VAR = EXPR .. EXPR                -- one loop level, outer first
//	ARRAY[VAR, VAR, ...] = EXPR           -- the single assignment statement
//	skew  INT ... / INT ... / ...         -- optional unimodular skew (rows)
//	tile  RAT ... / RAT ... / ...         -- optional tiling matrix H (rows)
//	map   INT                             -- optional 1-based mapping dim
//
// EXPR supports + - * / ( ), integer and decimal literals, parameters,
// loop variables (in bounds), and ARRAY[idx, …] references (in the
// statement). Statement references must use constant offsets from the
// loop variables (uniform dependencies), e.g. A[t-1, i+1, j].
package frontend

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber // integer or decimal literal
	tokPunct  // single-rune punctuation/operator
	tokDots   // ".."
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	line int
	toks []token
}

// lexLine tokenizes one logical line.
func lexLine(line string, lineNo int) ([]token, error) {
	lx := &lexer{src: line, line: lineNo}
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '#':
			lx.pos = len(lx.src)
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '.' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '.':
			lx.emit(tokDots, "..")
			lx.pos += 2
		case isDigit(rune(c)):
			start := lx.pos
			for lx.pos < len(lx.src) && (isDigit(rune(lx.src[lx.pos])) || lx.src[lx.pos] == '.') {
				// Stop before a ".." range operator.
				if lx.src[lx.pos] == '.' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '.' {
					break
				}
				lx.pos++
			}
			lx.emit(tokNumber, lx.src[start:lx.pos])
		case isIdentStart(rune(c)):
			start := lx.pos
			for lx.pos < len(lx.src) && isIdentPart(rune(lx.src[lx.pos])) {
				lx.pos++
			}
			lx.emit(tokIdent, lx.src[start:lx.pos])
		case strings.ContainsRune("+-*/()[],=", rune(c)):
			lx.emit(tokPunct, string(c))
			lx.pos++
		default:
			return nil, fmt.Errorf("line %d: unexpected character %q", lineNo, c)
		}
	}
	lx.emit(tokEOF, "")
	return lx.toks, nil
}

func (lx *lexer) emit(kind tokenKind, text string) {
	lx.toks = append(lx.toks, token{kind: kind, text: text, pos: lx.pos})
}

func isDigit(r rune) bool      { return r >= '0' && r <= '9' }
func isIdentStart(r rune) bool { return unicode.IsLetter(r) || r == '_' }
func isIdentPart(r rune) bool  { return isIdentStart(r) || isDigit(r) }

// tokens is a cursor over one line's tokens.
type tokens struct {
	toks []token
	i    int
	line int
}

func (t *tokens) peek() token { return t.toks[t.i] }

func (t *tokens) next() token {
	tk := t.toks[t.i]
	if tk.kind != tokEOF {
		t.i++
	}
	return tk
}

func (t *tokens) accept(text string) bool {
	if t.peek().kind == tokPunct && t.peek().text == text {
		t.i++
		return true
	}
	return false
}

func (t *tokens) expect(text string) error {
	if !t.accept(text) {
		return fmt.Errorf("line %d: expected %q, found %q", t.line, text, t.peek().text)
	}
	return nil
}

func (t *tokens) atEOF() bool { return t.peek().kind == tokEOF }
