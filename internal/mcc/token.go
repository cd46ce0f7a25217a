// Package mcc implements the MicroC compiler: a small C-subset front end
// with a three-address-code middle end and a MIPS back end, supporting four
// optimization levels O0–O3.
//
// mcc stands in for "any software compiler" in the reproduced paper's tool
// flow: the decompiler and partitioner consume only the binaries mcc emits,
// never its internal representations. The optimization levels matter
// because the paper studies how compiler optimizations interact with
// binary-level synthesis:
//
//	O0  naive code, every local lives in a stack slot
//	O1  register allocation, constant folding/propagation, copy
//	    propagation, dead code elimination
//	O2  O1 + local common subexpression elimination + strength reduction
//	    (multiplication/division by constants become shift/add sequences,
//	    which the decompiler's strength promotion must undo)
//	O3  O2 + loop unrolling of small counted loops (which the decompiler's
//	    loop rerolling must undo)
package mcc

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokKeyword
	tokPunct
	tokString
	tokChar
)

// token is a 24-byte, pointer-free view of one lexeme: its text is
// src[off:end]. A character literal spans only its opening quote.
type token struct {
	off, end  int32
	line, col int32
	val       uint32 // tokNumber and tokChar value (literals are 0..0xffffffff)
	kind      tokKind
}

func (t token) text(src string) string { return src[t.off:t.end] }

// describe renders a token for diagnostics.
func (t token) describe(src string) string {
	switch t.kind {
	case tokEOF:
		return "end of file"
	case tokNumber:
		return fmt.Sprintf("number %s", t.text(src))
	default:
		return fmt.Sprintf("%q", t.text(src))
	}
}

var keywords = map[string]bool{
	"int": true, "uint": true, "short": true, "ushort": true,
	"char": true, "uchar": true, "void": true,
	"if": true, "else": true, "while": true, "for": true, "do": true,
	"switch": true, "case": true, "default": true,
	"break": true, "continue": true, "return": true,
}

// puncts lists every punctuator by its first byte, longest first.
var puncts = [256][]string{
	'<': {"<<=", "<=", "<<", "<"},
	'>': {">>=", ">=", ">>", ">"},
	'.': {"..."},
	'=': {"==", "="},
	'!': {"!=", "!"},
	'&': {"&&", "&=", "&"},
	'|': {"||", "|=", "|"},
	'+': {"+=", "++", "+"},
	'-': {"-=", "--", "-"},
	'*': {"*=", "*"},
	'/': {"/=", "/"},
	'%': {"%=", "%"},
	'^': {"^=", "^"},
	'~': {"~"}, '(': {"("}, ')': {")"}, '{': {"{"}, '}': {"}"},
	'[': {"["}, ']': {"]"}, ';': {";"}, ',': {","}, ':': {":"}, '?': {"?"},
}

type lexer struct {
	src       string
	pos       int
	line      int
	lineStart int // offset of the current line's first byte
	toks      []token
}

// lex tokenizes src. It returns a descriptive error with line/column on
// any malformed input.
func lex(src string) ([]token, error) {
	// One token per 3 source bytes bounds the suite's programs (3.2-4.0
	// bytes a token); denser generated code grows the slice once.
	lx := &lexer{src: src, line: 1, toks: make([]token, 0, len(src)/3+16)}
	for {
		if err := lx.skipSpaceAndComments(); err != nil {
			return nil, err
		}
		if lx.pos >= len(lx.src) {
			lx.toks = append(lx.toks, token{kind: tokEOF, off: int32(lx.pos), end: int32(lx.pos), line: int32(lx.line), col: int32(lx.col())})
			return lx.toks, nil
		}
		if err := lx.next(); err != nil {
			return nil, err
		}
	}
}

func (lx *lexer) col() int { return lx.pos - lx.lineStart + 1 }

func (lx *lexer) errf(format string, args ...any) error {
	return lx.errAt(lx.line, lx.col(), format, args...)
}

func (lx *lexer) errAt(line, col int, format string, args ...any) error {
	return fmt.Errorf("mcc: %d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

func (lx *lexer) newline() {
	lx.line++
	lx.lineStart = lx.pos + 1
}

func (lx *lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.newline()
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			line, col := lx.line, lx.col()
			lx.pos += 2
			for {
				if lx.pos+1 >= len(lx.src) {
					return lx.errAt(line, col, "unterminated block comment")
				}
				if lx.src[lx.pos] == '*' && lx.src[lx.pos+1] == '/' {
					lx.pos += 2
					break
				}
				if lx.src[lx.pos] == '\n' {
					lx.newline()
				}
				lx.pos++
			}
		default:
			return nil
		}
	}
	return nil
}

func (lx *lexer) push(kind tokKind, start int, val uint32, line, col int) {
	lx.toks = append(lx.toks, token{kind: kind, off: int32(start), end: int32(lx.pos), val: val, line: int32(line), col: int32(col)})
}

func (lx *lexer) next() error {
	line, col := lx.line, lx.col()
	start := lx.pos
	c := lx.src[lx.pos]
	switch {
	case unicode.IsLetter(rune(c)) || c == '_':
		for lx.pos < len(lx.src) && isIdentChar(lx.src[lx.pos]) {
			lx.pos++
		}
		kind := tokIdent
		if keywords[lx.src[start:lx.pos]] {
			kind = tokKeyword
		}
		lx.push(kind, start, 0, line, col)
		return nil
	case unicode.IsDigit(rune(c)):
		for lx.pos < len(lx.src) && isIdentChar(lx.src[lx.pos]) {
			lx.pos++
		}
		text := lx.src[start:lx.pos]
		// Allow trailing u/U suffix as in C.
		numText := strings.TrimRight(text, "uU")
		v, err := strconv.ParseInt(numText, 0, 64)
		if err != nil {
			return lx.errf("bad number literal %q", text)
		}
		if v > 0xffffffff || v < -(1<<31) {
			return lx.errf("number %q out of 32-bit range", text)
		}
		lx.push(tokNumber, start, uint32(v), line, col)
		return nil
	case c == '\'':
		lx.pos++
		if lx.pos >= len(lx.src) {
			return lx.errf("unterminated character literal")
		}
		var v uint32
		if lx.src[lx.pos] == '\\' {
			lx.pos++
			if lx.pos >= len(lx.src) {
				return lx.errf("unterminated character literal")
			}
			switch lx.src[lx.pos] {
			case 'n':
				v = '\n'
			case 't':
				v = '\t'
			case '0':
				v = 0
			case '\\':
				v = '\\'
			case '\'':
				v = '\''
			default:
				return lx.errf("unknown escape \\%c", lx.src[lx.pos])
			}
		} else {
			v = uint32(lx.src[lx.pos])
		}
		if lx.src[lx.pos] == '\n' {
			lx.newline()
		}
		lx.pos++
		if lx.pos >= len(lx.src) || lx.src[lx.pos] != '\'' {
			return lx.errf("unterminated character literal")
		}
		lx.pos++
		lx.toks = append(lx.toks, token{kind: tokChar, off: int32(start), end: int32(start + 1), val: v, line: int32(line), col: int32(col)})
		return nil
	}
	for _, p := range puncts[c] {
		if strings.HasPrefix(lx.src[lx.pos:], p) {
			lx.pos += len(p)
			lx.push(tokPunct, start, 0, line, col)
			return nil
		}
	}
	return lx.errf("unexpected character %q", c)
}

func isIdentChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == 'x' || c == 'X'
}
