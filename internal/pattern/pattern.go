// Package pattern defines CLX data patterns: sequences of quantified tokens
// describing the structure of a string (paper §3.1). It provides the three
// renderings used throughout the system — the compact notation of the paper,
// the Wrangler-style natural-language regexp shown to end users, and a
// POSIX-style regular expression — together with anchored matching and the
// token-frequency statistic used by the synthesizer's validate step.
package pattern

import (
	"fmt"
	"strings"

	"clx/internal/rematch"
	"clx/internal/token"
	"clx/internal/tokenize"
)

// Pattern is a string pattern: a sequence of tokens, each with a quantifier.
// Patterns are immutable by convention; operations return new Patterns.
type Pattern struct {
	toks []token.Token
}

// Of constructs a pattern from a token sequence. The slice is not copied;
// callers must not mutate it afterwards.
func Of(toks ...token.Token) Pattern { return Pattern{toks: toks} }

// FromString derives the initial pattern of s by tokenization (paper §4.1).
func FromString(s string) Pattern { return Pattern{toks: tokenize.Tokenize(s)} }

// Tokens returns the pattern's token sequence. The caller must not mutate it.
func (p Pattern) Tokens() []token.Token { return p.toks }

// Len returns the number of tokens in the pattern.
func (p Pattern) Len() int { return len(p.toks) }

// At returns the i-th token (zero-based).
func (p Pattern) At(i int) token.Token { return p.toks[i] }

// IsEmpty reports whether the pattern has no tokens (pattern of "").
func (p Pattern) IsEmpty() bool { return len(p.toks) == 0 }

// String renders the pattern in the paper's compact notation, e.g.
// "<U><L>2<D>3'@'<L>5'.'<L>3".
func (p Pattern) String() string {
	var buf [128]byte
	b := buf[:0]
	for _, t := range p.toks {
		b = t.AppendString(b)
	}
	return string(b)
}

// Key returns a canonical map key identifying the pattern. Two patterns have
// equal keys iff they are Equal.
func (p Pattern) Key() string { return p.String() }

// Equal reports whether p and q consist of identical token sequences.
func (p Pattern) Equal(q Pattern) bool {
	if len(p.toks) != len(q.toks) {
		return false
	}
	for i, t := range p.toks {
		if t != q.toks[i] {
			return false
		}
	}
	return true
}

// NLRegex renders the pattern as an anchored natural-language-like regular
// expression in the style Wrangler presents to non-technical users (paper
// Fig. 4), e.g. "/^\({digit}{3}\) {digit}{3}-{digit}{4}$/".
func (p Pattern) NLRegex() string {
	var b strings.Builder
	b.WriteString("/^")
	for _, t := range p.toks {
		b.WriteString(t.NLRegex())
	}
	b.WriteString("$/")
	return b.String()
}

// Regex renders the pattern as an anchored POSIX-style regular expression,
// e.g. "^\([0-9]{3}\) [0-9]{3}-[0-9]{4}$".
func (p Pattern) Regex() string {
	var b strings.Builder
	b.WriteString("^")
	for _, t := range p.toks {
		b.WriteString(t.Regex())
	}
	b.WriteString("$")
	return b.String()
}

// GroupedNLRegex renders the pattern as an NL regexp with capture groups.
// groups lists half-open token ranges [start, end) (zero-based) to surround
// with parentheses; ranges must be non-overlapping and in ascending order.
func (p Pattern) GroupedNLRegex(groups [][2]int) string {
	return p.grouped(groups, token.Token.NLRegex, "/^", "$/")
}

// GroupedRegex is like GroupedNLRegex but in POSIX style.
func (p Pattern) GroupedRegex(groups [][2]int) string {
	return p.grouped(groups, token.Token.Regex, "^", "$")
}

func (p Pattern) grouped(groups [][2]int, render func(token.Token) string, pre, post string) string {
	var b strings.Builder
	b.WriteString(pre)
	g := 0
	for i, t := range p.toks {
		if g < len(groups) && groups[g][0] == i {
			b.WriteString("(")
		}
		b.WriteString(render(t))
		if g < len(groups) && groups[g][1] == i+1 {
			b.WriteString(")")
			g++
		}
	}
	b.WriteString(post)
	return b.String()
}

// Match reports whether s is an exact match of p and returns the per-token
// spans of s when it is.
func (p Pattern) Match(s string) ([]rematch.Span, bool) {
	return rematch.CompileCached(p.toks).Match(s)
}

// Matches reports whether s is an exact match of p.
func (p Pattern) Matches(s string) bool { return rematch.CompileCached(p.toks).Matches(s) }

// Freq computes the token frequency Q(<t>, p) of base class c in p (paper
// Eq. 1): the sum of quantifiers of all base tokens of exactly class c, with
// '+' counted as 1.
func (p Pattern) Freq(c token.Class) int {
	q := 0
	for _, t := range p.toks {
		if t.Class != c {
			continue
		}
		if t.Quant == token.Plus {
			q++
		} else {
			q += t.Quant
		}
	}
	return q
}

// FreqWithLiterals is Freq extended for constant-token discovery (§4.1): it
// also counts the characters inside fixed literal tokens toward their most
// precise base class, so a source pattern like ['CPT-', <D>5] still
// satisfies a target needing <U> tokens. Used for the source side of the
// synthesizer's validate; the target side keeps the paper's base-token-only
// count (target literals are produced by ConstStr, not extraction).
func (p Pattern) FreqWithLiterals(c token.Class) int {
	q := p.Freq(c)
	for _, t := range p.toks {
		if !t.IsLiteral() || t.Quant == token.Plus {
			continue
		}
		for _, r := range t.Expand() {
			if mostPrecise(r) == c {
				q++
			}
		}
	}
	return q
}

func mostPrecise(r rune) token.Class {
	switch {
	case r >= '0' && r <= '9':
		return token.Digit
	case r >= 'a' && r <= 'z':
		return token.Lower
	case r >= 'A' && r <= 'Z':
		return token.Upper
	default:
		return token.Literal
	}
}

// FreqHierarchical is like Freq but also credits tokens of classes that c
// generalizes (e.g. <U> and <L> tokens count toward <A>). This is the
// optional HierarchicalCount variant discussed in DESIGN.md; the paper's
// validate uses exact class counting.
func (p Pattern) FreqHierarchical(c token.Class) int {
	q := 0
	for _, t := range p.toks {
		if t.IsLiteral() || !c.Generalizes(t.Class) {
			continue
		}
		if t.Quant == token.Plus {
			q++
		} else {
			q += t.Quant
		}
	}
	return q
}

// BaseTokens returns the number of base (non-literal) tokens in p.
func (p Pattern) BaseTokens() int {
	n := 0
	for _, t := range p.toks {
		if !t.IsLiteral() {
			n++
		}
	}
	return n
}

// MinLen returns the minimum length of a string matching p.
func (p Pattern) MinLen() int {
	n := 0
	for _, t := range p.toks {
		n += t.MinLen()
	}
	return n
}

// Generalizes reports whether every string matching q also matches p, using
// a conservative token-wise check: the patterns must have the same length
// and every token of p must subsume the corresponding token of q. This is
// the "isChild" relation of Algorithm 1 for patterns produced by the
// generalization strategies of §4.2 (which preserve token structure except
// for merging, handled by the cluster package).
func (p Pattern) Generalizes(q Pattern) bool {
	if len(p.toks) != len(q.toks) {
		return false
	}
	for i, tp := range p.toks {
		if !tokenGeneralizes(tp, q.toks[i]) {
			return false
		}
	}
	return true
}

func tokenGeneralizes(g, c token.Token) bool {
	if g.IsLiteral() {
		return c.IsLiteral() && g.Lit == c.Lit && (g.Quant == c.Quant || g.Quant == token.Plus)
	}
	if c.IsLiteral() {
		// A base class token generalizes a literal whose every rune is in
		// the class (e.g. <AN>+ generalizes '-').
		if g.Quant != token.Plus && g.Quant != c.MinLen() {
			return false
		}
		for _, r := range c.Lit {
			if !g.Class.Contains(r) {
				return false
			}
		}
		return true
	}
	if !g.Class.Generalizes(c.Class) {
		return false
	}
	return g.Quant == c.Quant || g.Quant == token.Plus
}

// Parse parses the compact notation produced by String, e.g.
// "<U><L>2<D>+'@'<L>5". It is the inverse of String for valid patterns and
// is used by tests, the CLI, and benchmark definitions.
func Parse(s string) (Pattern, error) {
	var toks []token.Token
	i := 0
	for i < len(s) {
		switch s[i] {
		case '<':
			j := strings.IndexByte(s[i:], '>')
			if j < 0 {
				return Pattern{}, fmt.Errorf("pattern.Parse: unterminated class at %d in %q", i, s)
			}
			name := s[i+1 : i+j]
			var c token.Class
			switch name {
			case "D":
				c = token.Digit
			case "L":
				c = token.Lower
			case "U":
				c = token.Upper
			case "A":
				c = token.Alpha
			case "AN":
				c = token.AlphaNum
			default:
				return Pattern{}, fmt.Errorf("pattern.Parse: unknown class %q in %q", name, s)
			}
			i += j + 1
			q, n := parseQuant(s[i:])
			if q == 0 {
				return Pattern{}, fmt.Errorf("pattern.Parse: quantifier must be >= 1 at %d in %q", i, s)
			}
			i += n
			toks = append(toks, token.Base(c, q))
		case '\'':
			var lit strings.Builder
			j := i + 1
			closed := false
			for j < len(s) {
				switch {
				case s[j] == '\\' && j+1 < len(s):
					lit.WriteByte(s[j+1])
					j += 2
				case s[j] == '\'':
					closed = true
				default:
					lit.WriteByte(s[j])
					j++
				}
				if closed {
					break
				}
			}
			if !closed {
				return Pattern{}, fmt.Errorf("pattern.Parse: unterminated literal at %d in %q", i, s)
			}
			if lit.Len() == 0 {
				return Pattern{}, fmt.Errorf("pattern.Parse: empty literal at %d in %q", i, s)
			}
			i = j + 1
			q, n := parseQuant(s[i:])
			if q == 0 {
				return Pattern{}, fmt.Errorf("pattern.Parse: quantifier must be >= 1 at %d in %q", i, s)
			}
			i += n
			t := token.Lit(lit.String())
			t.Quant = q
			toks = append(toks, t)
		default:
			return Pattern{}, fmt.Errorf("pattern.Parse: unexpected %q at %d in %q", s[i], i, s)
		}
	}
	return Pattern{toks: toks}, nil
}

// MustParse is Parse but panics on error; for tests and static definitions.
func MustParse(s string) Pattern {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// maxQuant bounds parsed quantifiers; beyond it the count is certainly not
// a data pattern (and would overflow arithmetic downstream).
const maxQuant = 1 << 20

func parseQuant(s string) (q, n int) {
	if s == "" {
		return 1, 0
	}
	if s[0] == '+' {
		return token.Plus, 1
	}
	q = 0
	for n < len(s) && s[n] >= '0' && s[n] <= '9' {
		q = q*10 + int(s[n]-'0')
		if q > maxQuant {
			return 0, n // rejected by the caller's q==0 check
		}
		n++
	}
	if n == 0 {
		return 1, 0
	}
	return q, n
}
