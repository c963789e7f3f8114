package rematch

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"clx/internal/token"
	"clx/internal/tokenize"
)

// matchBoth matches s against p with both Compile and the reference
// matcher, failing the test when they disagree.
func matchBoth(t *testing.T, p []token.Token, s string) ([]Span, bool) {
	t.Helper()
	want, wantOK := referenceMatch(p, s)
	c := Compile(p)
	got, ok := c.Match(s)
	if ok != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("Match(%v, %q) = %v, %v; reference %v, %v", p, s, got, ok, want, wantOK)
	}
	if c.Matches(s) != ok {
		t.Fatalf("Matches(%v, %q) = %v, Match says %v", p, s, !ok, ok)
	}
	return got, ok
}

// matchesBoth is matchBoth's verdict.
func matchesBoth(t *testing.T, p []token.Token, s string) bool {
	t.Helper()
	_, ok := matchBoth(t, p, s)
	return ok
}

func mustMatch(t *testing.T, p []token.Token, s string) []Span {
	t.Helper()
	spans, ok := matchBoth(t, p, s)
	if !ok {
		t.Fatalf("Match(%v, %q) = false, want true", p, s)
	}
	return spans
}

func TestMatchFixed(t *testing.T) {
	p := []token.Token{
		token.Lit("("), token.Base(token.Digit, 3), token.Lit(")"),
		token.Lit(" "), token.Base(token.Digit, 3), token.Lit("-"),
		token.Base(token.Digit, 4),
	}
	spans := mustMatch(t, p, "(734) 645-8397")
	want := []Span{{0, 1}, {1, 4}, {4, 5}, {5, 6}, {6, 9}, {9, 10}, {10, 14}}
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("spans = %v, want %v", spans, want)
	}
	for _, bad := range []string{"(734 645-8397", "(7345) 645-8397", "", "(734) 645-839", "(734) 645-83977"} {
		if matchesBoth(t, p, bad) {
			t.Errorf("Matches(%q) = true, want false", bad)
		}
	}
}

func TestMatchPlus(t *testing.T) {
	p := []token.Token{
		token.Base(token.Upper, token.Plus), token.Lit("-"),
		token.Base(token.Digit, token.Plus),
	}
	spans := mustMatch(t, p, "CPT-00350")
	want := []Span{{0, 3}, {3, 4}, {4, 9}}
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("spans = %v, want %v", spans, want)
	}
}

func TestMatchOverlappingClassesBacktrack(t *testing.T) {
	// <AN>+ overlaps digits; greedy must backtrack so <D>4 can match.
	p := []token.Token{
		token.Base(token.AlphaNum, token.Plus), token.Lit("."),
		token.Base(token.Digit, 4),
	}
	spans := mustMatch(t, p, "abc123.2019")
	want := []Span{{0, 6}, {6, 7}, {7, 11}}
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("spans = %v, want %v", spans, want)
	}

	// Adjacent overlapping plus-tokens: <AN>+<D>+ on "ab12": AN takes "ab1",
	// digits take "2" (greedy with backtracking yields longest AN first).
	p2 := []token.Token{
		token.Base(token.AlphaNum, token.Plus),
		token.Base(token.Digit, token.Plus),
	}
	spans = mustMatch(t, p2, "ab12")
	want = []Span{{0, 3}, {3, 4}}
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("spans = %v, want %v", spans, want)
	}
}

func TestMatchLiteralPlus(t *testing.T) {
	p := []token.Token{
		{Class: token.Literal, Lit: "ab", Quant: token.Plus},
		token.Base(token.Digit, 1),
	}
	spans := mustMatch(t, p, "ababab1")
	want := []Span{{0, 6}, {6, 7}}
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("spans = %v, want %v", spans, want)
	}
	if matchesBoth(t, p, "aba1") {
		t.Error("Matches(aba1) = true, want false (partial literal repeat)")
	}
}

func TestMatchEmpty(t *testing.T) {
	if _, ok := matchBoth(t, nil, ""); !ok {
		t.Error("empty pattern should match empty string")
	}
	if _, ok := matchBoth(t, nil, "x"); ok {
		t.Error("empty pattern should not match non-empty string")
	}
}

func TestMatchAnchored(t *testing.T) {
	p := []token.Token{token.Base(token.Digit, 3)}
	for _, bad := range []string{"1234", "a123", "123a", "12"} {
		if matchesBoth(t, p, bad) {
			t.Errorf("Matches(%q) = true, want false (must be anchored)", bad)
		}
	}
	if !matchesBoth(t, p, "123") {
		t.Error("Matches(123) = false, want true")
	}
}

// Property: tokenizing any string yields a pattern that matches it, with
// spans exactly reconstructing the string in order.
func TestTokenizedPatternMatchesSelf(t *testing.T) {
	f := func(s string) bool {
		toks := tokenize.Tokenize(s)
		spans, ok := matchBoth(t, toks, s)
		if !ok {
			return false
		}
		var b strings.Builder
		prev := 0
		for _, sp := range spans {
			if sp.Start != prev {
				return false
			}
			b.WriteString(s[sp.Start:sp.End])
			prev = sp.End
		}
		return prev == len(s) && b.String() == s
	}
	cfg := &quick.Config{MaxCount: 200, Values: func(v []reflect.Value, r *rand.Rand) {
		n := r.Intn(40)
		b := make([]byte, n)
		const alphabet = "abcXYZ019 -_.@/()+,:"
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		v[0] = reflect.ValueOf(string(b))
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: spans returned by Match always tile the subject string
// contiguously, for generalized patterns too.
func TestSpansTile(t *testing.T) {
	pats := [][]token.Token{
		{token.Base(token.AlphaNum, token.Plus)},
		{token.Base(token.Alpha, token.Plus), token.Base(token.Digit, token.Plus)},
		{token.Base(token.AlphaNum, token.Plus), token.Lit("@"), token.Base(token.AlphaNum, token.Plus), token.Lit("."), token.Base(token.AlphaNum, token.Plus)},
	}
	subjects := []string{"Excel2013", "Bob123@gmail.com", "a1@b2.c3", "x@y.z", "ab-cd_ef@g h.ij"}
	for _, p := range pats {
		for _, s := range subjects {
			spans, ok := matchBoth(t, p, s)
			if !ok {
				continue
			}
			prev := 0
			for _, sp := range spans {
				if sp.Start != prev || sp.End < sp.Start {
					t.Errorf("pattern %v on %q: spans not contiguous: %v", p, s, spans)
				}
				prev = sp.End
			}
			if prev != len(s) {
				t.Errorf("pattern %v on %q: spans do not cover string: %v", p, s, spans)
			}
		}
	}
}

func TestPathologicalBacktracking(t *testing.T) {
	// Many overlapping '+' tokens over a long non-matching string must not
	// blow up thanks to failure memoization.
	var p []token.Token
	for i := 0; i < 12; i++ {
		p = append(p, token.Base(token.AlphaNum, token.Plus))
	}
	p = append(p, token.Lit("!"))
	s := strings.Repeat("a", 200)
	if matchesBoth(t, p, s) {
		t.Error("pattern requiring '!' matched plain letters")
	}
	if !matchesBoth(t, p[:12], s[:12]) {
		t.Error("12 <AN>+ tokens should match 12 chars")
	}
}
