package rematch

import (
	"strings"

	"clx/internal/token"
)

// referenceMatch is the test oracle for Compiled: a one-shot backtracking
// matcher written independently of the production one. It has no quick
// rejects, no pooled state and no pre-expanded literals — each repeat of a
// literal is checked unit by unit — so agreement with Compiled checks
// those optimizations, not just the shared search order. The semantics
// are the package's: an exact (anchored) match, greedy on ambiguity (each
// '+' token takes the longest extent that still lets the rest match).
func referenceMatch(p []token.Token, s string) ([]Span, bool) {
	if len(p) == 0 {
		return nil, s == ""
	}
	r := refMatcher{p: p, s: s, failed: make(map[[2]int]bool)}
	spans := make([]Span, len(p))
	if !r.match(0, 0, spans) {
		return nil, false
	}
	return spans, true
}

// referenceMatches is referenceMatch without the spans.
func referenceMatches(p []token.Token, s string) bool {
	_, ok := referenceMatch(p, s)
	return ok
}

type refMatcher struct {
	p []token.Token
	s string
	// failed memoizes (token, position) states that cannot complete, which
	// keeps pathological patterns polynomial.
	failed map[[2]int]bool
}

// unit reports whether one unit of t — a class character, or one copy of
// a literal — starts at pos, and returns its end.
func (r *refMatcher) unit(t token.Token, pos int) (int, bool) {
	if t.IsLiteral() {
		if strings.HasPrefix(r.s[pos:], t.Lit) {
			return pos + len(t.Lit), true
		}
		return 0, false
	}
	if pos < len(r.s) && t.Class.Contains(rune(r.s[pos])) {
		return pos + 1, true
	}
	return 0, false
}

func (r *refMatcher) match(ti, pos int, spans []Span) bool {
	if ti == len(r.p) {
		return pos == len(r.s)
	}
	if r.failed[[2]int{ti, pos}] {
		return false
	}
	t := r.p[ti]
	// ends lists the token's candidate extents, longest first.
	var ends []int
	end := pos
	for n := 0; t.Quant == token.Plus || n < t.Quant; n++ {
		next, ok := r.unit(t, end)
		if !ok {
			break
		}
		end = next
		if t.Quant == token.Plus {
			ends = append([]int{end}, ends...)
		} else if n == t.Quant-1 {
			ends = []int{end}
		}
	}
	for _, e := range ends {
		spans[ti] = Span{pos, e}
		if r.match(ti+1, e, spans) {
			return true
		}
	}
	r.failed[[2]int{ti, pos}] = true
	return false
}
