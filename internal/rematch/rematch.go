// Package rematch is a small backtracking matcher for CLX token patterns.
//
// It plays the role of the regular-expression engine executing the Replace
// operations CLX generates (paper §5). Go's built-in RE2 engine cannot
// produce the per-token submatch spans the UniFi evaluator needs for
// patterns whose generalized classes overlap (e.g. <AN>+ followed by <D>+),
// so matching is implemented directly over the token sequence with
// backtracking and memoized failure states; replacements are then evaluated
// over the returned spans (see DESIGN.md, substitutions).
//
// For repeated matching of the same pattern — applying a transformation to
// a whole column — Compile returns a reusable matcher with precomputed
// quick-reject checks and pooled backtracking state.
package rematch

import (
	"strings"
	"sync"
	"unsafe"

	"clx/internal/token"
)

// Span is a half-open byte range [Start, End) of the subject string matched
// by one token of a pattern.
type Span struct {
	Start, End int
}

// Match reports whether s is an exact (anchored) match of the token sequence
// p, and if so returns one span per token covering s. When p is ambiguous,
// the match is greedy: each '+' token takes the longest extent that still
// allows the remaining tokens to match.
//
// Matching is byte-oriented; CLX token classes are all ASCII, and non-ASCII
// bytes can only be matched by literal tokens.
func Match(p []token.Token, s string) ([]Span, bool) {
	if len(p) == 0 {
		return nil, s == ""
	}
	var m matcher
	m.reset(p, nil, s)
	spans := make([]Span, len(p))
	if !m.match(0, 0, spans) {
		return nil, false
	}
	return spans, true
}

// Matches reports whether s is an exact match of p without materializing
// spans.
func Matches(p []token.Token, s string) bool {
	if len(p) == 0 {
		return s == ""
	}
	var m matcher
	m.reset(p, nil, s)
	return m.match(0, 0, m.scratch(len(p)))
}

// Compiled is a pattern prepared for repeated matching. It is safe for
// concurrent use.
type Compiled struct {
	toks []token.Token
	// lits holds each fixed literal token's expanded text by position
	// ("" for other tokens), so matching never re-expands a repeat.
	lits   []string
	minLen int
	// fixedLen is the exact subject length when no token has a '+'
	// quantifier, else -1.
	fixedLen int
	// prefix/suffix are required literal bounds, when the first/last token
	// is a fixed literal.
	prefix, suffix string
	pool           sync.Pool
}

// Compile prepares a token sequence for matching. The slice is not copied;
// callers must not mutate it afterwards.
func Compile(p []token.Token) *Compiled {
	c := &Compiled{toks: p, lits: make([]string, len(p)), fixedLen: 0}
	for i, t := range p {
		if t.IsLiteral() && t.Quant != token.Plus {
			c.lits[i] = t.Expand()
		}
		c.minLen += t.MinLen()
		if c.fixedLen >= 0 {
			if l, ok := t.FixedLen(); ok {
				c.fixedLen += l
			} else {
				c.fixedLen = -1
			}
		}
	}
	if len(p) > 0 {
		c.prefix, c.suffix = c.lits[0], c.lits[len(p)-1]
	}
	c.pool.New = func() any { return &matcher{} }
	return c
}

// Tokens returns the compiled token sequence. The caller must not mutate it.
func (c *Compiled) Tokens() []token.Token { return c.toks }

// Match reports whether s is an exact match and returns per-token spans.
func (c *Compiled) Match(s string) ([]Span, bool) {
	if !c.quick(s) {
		return nil, false
	}
	if len(c.toks) == 0 {
		return nil, s == ""
	}
	m := c.pool.Get().(*matcher)
	m.reset(c.toks, c.lits, s)
	spans := make([]Span, len(c.toks))
	ok := m.match(0, 0, spans)
	c.pool.Put(m)
	if !ok {
		return nil, false
	}
	return spans, true
}

// MatchInto is Match with a caller-owned span buffer: buf is grown (or
// allocated) to one span per token and returned filled on a match,
// sparing the per-call span allocation on bulk-apply hot paths. The
// returned slice aliases buf when it had capacity; callers reuse it
// across calls.
func (c *Compiled) MatchInto(s string, buf []Span) ([]Span, bool) {
	if !c.quick(s) {
		return buf, false
	}
	if len(c.toks) == 0 {
		return buf[:0], s == ""
	}
	if cap(buf) < len(c.toks) {
		buf = make([]Span, len(c.toks))
	}
	spans := buf[:len(c.toks)]
	m := c.pool.Get().(*matcher)
	m.reset(c.toks, c.lits, s)
	ok := m.match(0, 0, spans)
	c.pool.Put(m)
	return spans, ok
}

// Matches reports whether s is an exact match without materializing spans.
func (c *Compiled) Matches(s string) bool {
	if !c.quick(s) {
		return false
	}
	if len(c.toks) == 0 {
		return s == ""
	}
	m := c.pool.Get().(*matcher)
	m.reset(c.toks, c.lits, s)
	ok := m.match(0, 0, m.scratch(len(c.toks)))
	c.pool.Put(m)
	return ok
}

// MatchesBytes is Matches over a byte slice, viewed in place rather than
// copied into a string: the check for output rendered into a reused
// buffer. b must not change during the call; the matcher keeps no use of
// it afterwards.
func (c *Compiled) MatchesBytes(b []byte) bool {
	return c.Matches(unsafe.String(unsafe.SliceData(b), len(b)))
}

// quick applies the precomputed rejects.
func (c *Compiled) quick(s string) bool {
	if len(s) < c.minLen {
		return false
	}
	if c.fixedLen >= 0 && len(s) != c.fixedLen {
		return false
	}
	if c.prefix != "" && !strings.HasPrefix(s, c.prefix) {
		return false
	}
	if c.suffix != "" && !strings.HasSuffix(s, c.suffix) {
		return false
	}
	return true
}

type matcher struct {
	pat []token.Token
	// lits are the compiled pattern's expanded fixed literals; nil for
	// one-shot matching, which expands on demand.
	lits []string
	s    string
	// fail memoizes failed (token, position) states as a flat bitset.
	fail    []bool
	width   int
	spanBuf []Span
}

func (m *matcher) reset(pat []token.Token, lits []string, s string) {
	m.pat, m.lits, m.s = pat, lits, s
	m.width = len(s) + 1
	need := len(pat) * m.width
	if cap(m.fail) < need {
		m.fail = make([]bool, need)
	} else {
		m.fail = m.fail[:need]
		clear(m.fail)
	}
}

func (m *matcher) scratch(n int) []Span {
	if cap(m.spanBuf) < n {
		m.spanBuf = make([]Span, n)
	}
	return m.spanBuf[:n]
}

// match tries to match pat[ti:] against s[pos:], filling spans[ti:].
func (m *matcher) match(ti, pos int, spans []Span) bool {
	if ti == len(m.pat) {
		return pos == len(m.s)
	}
	idx := ti*m.width + pos
	if m.fail[idx] {
		return false
	}
	t := m.pat[ti]
	if t.Quant != token.Plus {
		// Fixed-length token: single possible extent.
		if end, ok := m.fixed(ti, pos); ok {
			spans[ti] = Span{pos, end}
			if m.match(ti+1, end, spans) {
				return true
			}
		}
		m.fail[idx] = true
		return false
	}
	// '+' token: longest extent first (greedy), backtrack shorter.
	max := m.maxRun(t, pos)
	unit := 1
	if t.IsLiteral() {
		unit = len(t.Lit)
	}
	for end := max; end >= pos+unit; end -= unit {
		spans[ti] = Span{pos, end}
		if m.match(ti+1, end, spans) {
			return true
		}
	}
	m.fail[idx] = true
	return false
}

// fixed returns the end position of the fixed-quantifier token pat[ti]
// matched at pos.
func (m *matcher) fixed(ti, pos int) (int, bool) {
	t := m.pat[ti]
	if t.IsLiteral() {
		var lit string
		if m.lits != nil {
			lit = m.lits[ti]
		} else {
			lit = t.Expand()
		}
		end := pos + len(lit)
		if end > len(m.s) || m.s[pos:end] != lit {
			return 0, false
		}
		return end, true
	}
	end := pos + t.Quant
	if end > len(m.s) {
		return 0, false
	}
	for i := pos; i < end; i++ {
		if !t.Class.Contains(rune(m.s[i])) {
			return 0, false
		}
	}
	return end, true
}

// maxRun returns the furthest position reachable by repeating t from pos.
func (m *matcher) maxRun(t token.Token, pos int) int {
	if t.IsLiteral() {
		end := pos
		for strings.HasPrefix(m.s[end:], t.Lit) {
			end += len(t.Lit)
		}
		return end
	}
	end := pos
	for end < len(m.s) && t.Class.Contains(rune(m.s[end])) {
		end++
	}
	return end
}
