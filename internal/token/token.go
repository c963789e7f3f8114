// Package token defines the token classes and quantified tokens that make up
// CLX data patterns (paper §3.1, Table 2).
//
// A pattern is a sequence of tokens; each token is either a base token (a
// character-class token such as digit or lower) or a literal token carrying a
// constant string value. Every token has a quantifier: a natural number, or
// Plus meaning "one or more occurrences".
package token

import (
	"fmt"
	"strconv"
	"strings"
)

// Class identifies a token class. Literal denotes a constant-value token; the
// remaining classes are the five base token classes of Table 2.
type Class uint8

const (
	// Literal is a token with a constant string value, e.g. '@' or 'Dr.'.
	Literal Class = iota
	// Digit is [0-9], notated <D>.
	Digit
	// Lower is [a-z], notated <L>.
	Lower
	// Upper is [A-Z], notated <U>.
	Upper
	// Alpha is [a-zA-Z], notated <A>.
	Alpha
	// AlphaNum is [a-zA-Z0-9 _-], notated <AN>.
	AlphaNum
)

// BaseClasses lists the five base token classes in the order used by the
// validate frequency count (paper Eq. 1–2).
var BaseClasses = [...]Class{Digit, Lower, Upper, Alpha, AlphaNum}

// Plus is the quantifier value meaning "one or more occurrences" ('+').
const Plus = -1

// String returns the notation of the class as used in the paper, e.g. "<D>".
func (c Class) String() string {
	switch c {
	case Literal:
		return "literal"
	case Digit:
		return "<D>"
	case Lower:
		return "<L>"
	case Upper:
		return "<U>"
	case Alpha:
		return "<A>"
	case AlphaNum:
		return "<AN>"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// NLName returns the natural-language token name used in Wrangler-style
// regexps (paper Fig. 4), e.g. "digit".
func (c Class) NLName() string {
	switch c {
	case Digit:
		return "digit"
	case Lower:
		return "lower"
	case Upper:
		return "upper"
	case Alpha:
		return "alpha"
	case AlphaNum:
		return "alnum"
	}
	return "literal"
}

// CharSet returns the regular-expression character set of the class
// (Table 2), e.g. "[0-9]" for Digit.
func (c Class) CharSet() string {
	switch c {
	case Digit:
		return "[0-9]"
	case Lower:
		return "[a-z]"
	case Upper:
		return "[A-Z]"
	case Alpha:
		return "[a-zA-Z]"
	case AlphaNum:
		return "[a-zA-Z0-9 _-]"
	}
	return ""
}

// Contains reports whether r belongs to the class's character set. It is
// false for Literal, which matches by exact value rather than by class.
func (c Class) Contains(r rune) bool {
	switch c {
	case Digit:
		return r >= '0' && r <= '9'
	case Lower:
		return r >= 'a' && r <= 'z'
	case Upper:
		return r >= 'A' && r <= 'Z'
	case Alpha:
		return (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
	case AlphaNum:
		return (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9') || r == ' ' || r == '_' || r == '-'
	}
	return false
}

// Generalizes reports whether class c subsumes class d: every string matching
// d also matches c. A class generalizes itself.
func (c Class) Generalizes(d Class) bool {
	if c == d {
		return true
	}
	switch c {
	case Alpha:
		return d == Lower || d == Upper
	case AlphaNum:
		return d == Lower || d == Upper || d == Digit || d == Alpha
	}
	return false
}

// Token is one element of a pattern: a base class or a literal value,
// together with a quantifier.
type Token struct {
	// Class is the token class; Literal means Lit holds the constant value.
	Class Class
	// Lit is the constant value of a Literal token; empty for base tokens.
	Lit string
	// Quant is the quantifier: a natural number >= 1, or Plus ('+').
	// For base tokens it counts characters; for literal tokens it counts
	// repetitions of Lit (almost always 1).
	Quant int
}

// Base constructs a base token of class c with quantifier q (a natural
// number, or Plus).
func Base(c Class, q int) Token {
	if c == Literal {
		panic("token.Base: class must not be Literal")
	}
	return Token{Class: c, Quant: q}
}

// Lit constructs a literal token with constant value s (quantifier 1).
func Lit(s string) Token {
	if s == "" {
		panic("token.Lit: empty literal")
	}
	return Token{Class: Literal, Lit: s, Quant: 1}
}

// IsLiteral reports whether the token is a literal (constant-value) token.
func (t Token) IsLiteral() bool { return t.Class == Literal }

// IsPlus reports whether the token's quantifier is '+'.
func (t Token) IsPlus() bool { return t.Quant == Plus }

// String renders the token in the paper's compact notation: "<D>3", "<L>+",
// or a quoted literal like "'@'". Quote and backslash characters inside a
// literal are backslash-escaped so the rendering always parses back.
func (t Token) String() string {
	var buf [32]byte
	return string(t.AppendString(buf[:0]))
}

// AppendString appends String's rendering of the token to dst, so a
// caller rendering many tokens (a pattern key) fills one buffer.
func (t Token) AppendString(dst []byte) []byte {
	if t.IsLiteral() {
		dst = append(dst, '\'')
		for i := 0; i < len(t.Lit); i++ {
			if c := t.Lit[i]; c == '\\' || c == '\'' {
				dst = append(dst, '\\')
			}
			dst = append(dst, t.Lit[i])
		}
		dst = append(dst, '\'')
		switch {
		case t.Quant == Plus:
			return append(dst, '+')
		case t.Quant > 1:
			return strconv.AppendInt(dst, int64(t.Quant), 10)
		}
		return dst
	}
	dst = append(dst, t.Class.String()...)
	switch t.Quant {
	case Plus:
		return append(dst, '+')
	case 1:
		return dst
	}
	return strconv.AppendInt(dst, int64(t.Quant), 10)
}

// MinLen returns the minimum number of characters the token can match.
func (t Token) MinLen() int {
	unit := 1
	if t.IsLiteral() {
		unit = len(t.Lit)
	}
	if t.Quant == Plus {
		return unit
	}
	return unit * t.Quant
}

// FixedLen returns the exact number of characters the token matches and true,
// or 0 and false when the token has a '+' quantifier.
func (t Token) FixedLen() (int, bool) {
	if t.Quant == Plus {
		return 0, false
	}
	if t.IsLiteral() {
		return len(t.Lit) * t.Quant, true
	}
	return t.Quant, true
}

// SyntacticallySimilar implements Definition 6.1: two tokens are
// syntactically similar if they have the same class and their quantifiers are
// identical natural numbers, or at least one of them is '+'. Literal tokens
// are similar only when their constant values are identical.
func SyntacticallySimilar(a, b Token) bool {
	if a.Class != b.Class {
		return false
	}
	if a.IsLiteral() && a.Lit != b.Lit {
		return false
	}
	if a.Quant == b.Quant {
		return true
	}
	return a.Quant == Plus || b.Quant == Plus
}

// CanProduce reports whether extracting the source token src is guaranteed
// to produce a valid instance of the target token tgt.
//
// It differs from Definition 6.1's symmetric similarity in two ways:
//
//   - Soundness: a '+'-quantified source may only produce a '+'-quantified
//     target. Def 6.1 also admits '+' against an exact count, but
//     extracting a three-character digit run into a <D>1 target would
//     break the target pattern — the direction the paper's soundness
//     argument overlooks.
//   - Constants: a fixed literal source token can produce a base target
//     token when its constant content matches it — e.g. Extract of 'CPT'
//     yields a valid <U>+ or <U>3 (supports §4.1 constant discovery).
func CanProduce(src, tgt Token) bool {
	if tgt.IsLiteral() {
		if !src.IsLiteral() || src.Lit != tgt.Lit {
			return false
		}
		// Any repetition count >= 1 matches a '+' target; an exact target
		// needs the same exact count.
		return tgt.Quant == Plus || src.Quant == tgt.Quant
	}
	if !src.IsLiteral() {
		if src.Class != tgt.Class {
			return false
		}
		return tgt.Quant == Plus || src.Quant == tgt.Quant
	}
	// Literal source producing a base target: the constant content must
	// match the target token.
	if src.Quant == Plus {
		if tgt.Quant != Plus {
			return false
		}
		for _, r := range src.Lit {
			if !tgt.Class.Contains(r) {
				return false
			}
		}
		return true
	}
	content := src.Expand()
	if tgt.Quant != Plus && len(content) != tgt.Quant {
		return false
	}
	for _, r := range content {
		if !tgt.Class.Contains(r) {
			return false
		}
	}
	return true
}

// Expand returns the literal text of a literal token with a natural-number
// quantifier (Lit repeated Quant times). It panics on base or '+' tokens.
func (t Token) Expand() string {
	if !t.IsLiteral() || t.Quant == Plus {
		panic("token.Expand: not a fixed literal token")
	}
	return strings.Repeat(t.Lit, t.Quant)
}

// regexMeta are the characters escaped when rendering POSIX-style regexps.
// The hyphen is not a metacharacter outside character classes, but the paper
// escapes it in rendered patterns (Fig. 4), so we do too.
const regexMeta = `\.+*?()|[]{}^$-`

// EscapeRegex escapes regex metacharacters in s for use in a generated
// regular-expression string. Iteration is byte-wise (all metacharacters
// are ASCII) so arbitrary bytes pass through unchanged.
func EscapeRegex(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] < 0x80 && strings.ContainsRune(regexMeta, rune(s[i])) {
			b.WriteByte('\\')
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// Regex renders the token as a fragment of a POSIX-style regular expression,
// e.g. "[0-9]{3}" or "\(".
func (t Token) Regex() string {
	if t.IsLiteral() {
		body := EscapeRegex(t.Lit)
		if len(t.Lit) > 1 {
			body = "(?:" + body + ")"
		}
		return body + quantRegex(t.Quant)
	}
	return t.Class.CharSet() + quantRegex(t.Quant)
}

func quantRegex(q int) string {
	switch {
	case q == Plus:
		return "+"
	case q == 1:
		return ""
	default:
		return fmt.Sprintf("{%d}", q)
	}
}

// NLRegex renders the token in the natural-language-like regexp style used
// by Wrangler and shown to end users (paper Fig. 4), e.g. "{digit}{3}".
func (t Token) NLRegex() string {
	if t.IsLiteral() {
		body := EscapeRegex(t.Lit)
		return body + quantRegex(t.Quant)
	}
	return "{" + t.Class.NLName() + "}" + quantRegex(t.Quant)
}
