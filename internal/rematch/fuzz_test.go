package rematch

import (
	"slices"
	"testing"

	"clx/internal/token"
)

// fuzzLits are the literal values fuzzed patterns draw from: single and
// multi-byte, overlapping the class alphabets, and non-ASCII.
var fuzzLits = []string{"-", "(", "a", "ab", " ", "'", "1", "é", "aa"}

// decodePattern turns fuzz bytes into a token pattern, two bytes a token:
// the first picks a base class or a literal, the second the quantifier
// (a quarter of them '+') and the literal value.
func decodePattern(spec []byte) []token.Token {
	var p []token.Token
	for i := 0; i+1 < len(spec) && len(p) < 8; i += 2 {
		kind, q := spec[i]%7, spec[i+1]
		quant := token.Plus
		if q%4 != 0 {
			quant = int(q % 4) // 1..3
		}
		if kind < 5 {
			p = append(p, token.Token{Class: token.BaseClasses[kind], Quant: quant})
			continue
		}
		lit := fuzzLits[int(q>>2)%len(fuzzLits)]
		p = append(p, token.Token{Class: token.Literal, Lit: lit, Quant: quant})
	}
	return p
}

// FuzzCompiledVsReference: the compiled matcher — quick rejects,
// pre-expanded literals, pooled state, caller buffers — agrees with the
// independent reference matcher on verdict and spans, through Match,
// MatchInto and Matches.
func FuzzCompiledVsReference(f *testing.F) {
	f.Add([]byte{5, 4, 0, 3, 5, 8, 5, 16, 0, 3, 5, 0, 0, 2}, "(734) 645-8397")
	f.Add([]byte{4, 0, 1, 0}, "abc123")
	f.Add([]byte{6, 12, 0, 1}, "ababab1")
	f.Add([]byte{2, 0, 5, 16, 3, 0}, "ab a AB")
	f.Add([]byte{}, "")
	f.Add([]byte{6, 28}, "éé")
	f.Fuzz(func(t *testing.T, spec []byte, s string) {
		if len(s) > 64 {
			s = s[:64]
		}
		p := decodePattern(spec)
		want, wantOK := referenceMatch(p, s)
		c := Compile(p)
		got, ok := c.Match(s)
		if ok != wantOK || !slices.Equal(got, want) {
			t.Fatalf("Match(%v, %q) = %v, %v; reference %v, %v", p, s, got, ok, want, wantOK)
		}
		into, ok := c.MatchInto(s, make([]Span, 0, 2))
		if ok != wantOK || ok && !slices.Equal(into, want) {
			t.Fatalf("MatchInto(%v, %q) = %v, %v; reference %v, %v", p, s, into, ok, want, wantOK)
		}
		if c.Matches(s) != wantOK {
			t.Fatalf("Matches(%v, %q) = %v; reference %v", p, s, !wantOK, wantOK)
		}
	})
}
