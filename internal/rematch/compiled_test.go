package rematch

import (
	"reflect"
	"sync"
	"testing"

	"clx/internal/token"
	"clx/internal/tokenize"
)

func TestCompiledEquivalentToMatch(t *testing.T) {
	patterns := [][]token.Token{
		tokenize.Tokenize("(734) 645-8397"),
		tokenize.Tokenize("CPT-00350"),
		{token.Base(token.AlphaNum, token.Plus), token.Lit("@"), token.Base(token.AlphaNum, token.Plus)},
		{token.Base(token.Upper, token.Plus), token.Lit("-"), token.Base(token.Digit, token.Plus)},
		nil,
	}
	subjects := []string{
		"(734) 645-8397", "(313) 263-1192", "CPT-00350", "XYZ-42",
		"a b@c d", "nope", "", "734-422-8073", "CPT-0035", "CPT-003500",
	}
	for _, p := range patterns {
		c := Compile(p)
		for _, s := range subjects {
			wantSpans, wantOK := referenceMatch(p, s)
			gotSpans, gotOK := c.Match(s)
			if wantOK != gotOK || !reflect.DeepEqual(wantSpans, gotSpans) {
				t.Errorf("pattern %v on %q: compiled (%v,%v) != reference (%v,%v)",
					p, s, gotSpans, gotOK, wantSpans, wantOK)
			}
			if c.Matches(s) != wantOK {
				t.Errorf("pattern %v on %q: Matches disagrees", p, s)
			}
		}
	}
}

func TestCompiledQuickRejects(t *testing.T) {
	p := tokenize.Tokenize("(734) 645-8397")
	c := Compile(p)
	// Fixed-length pattern: wrong lengths rejected without backtracking.
	if c.Matches("(734) 645-839") || c.Matches("(734) 645-83977") {
		t.Error("length quick-reject failed")
	}
	// Literal prefix/suffix rejects.
	if c.Matches("[734) 645-8397") {
		t.Error("prefix quick-reject failed")
	}
	p2 := []token.Token{token.Lit("["), token.Base(token.Digit, token.Plus), token.Lit("]")}
	c2 := Compile(p2)
	if c2.Matches("[123)") {
		t.Error("suffix quick-reject failed")
	}
	if !c2.Matches("[123]") {
		t.Error("valid subject rejected")
	}
}

func TestCompiledConcurrent(t *testing.T) {
	p := []token.Token{
		token.Base(token.AlphaNum, token.Plus), token.Lit("."),
		token.Base(token.Digit, 4),
	}
	c := Compile(p)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				spans, ok := c.Match("abc123.2019")
				if !ok || len(spans) != 3 || spans[2] != (Span{7, 11}) {
					t.Errorf("concurrent match wrong: %v %v", spans, ok)
					return
				}
				if c.Matches("nope") {
					t.Error("concurrent false positive")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// MatchInto agrees with Match on spans and verdicts, reuses a buffer with
// capacity in place, and grows an undersized one.
func TestMatchInto(t *testing.T) {
	patterns := [][]token.Token{
		tokenize.Tokenize("(734) 645-8397"),
		{token.Base(token.AlphaNum, token.Plus), token.Lit("@"), token.Base(token.AlphaNum, token.Plus)},
		nil,
	}
	subjects := []string{"(734) 645-8397", "a b@c d", "nope", ""}
	var buf []Span
	for _, p := range patterns {
		c := Compile(p)
		for _, s := range subjects {
			wantSpans, wantOK := referenceMatch(p, s)
			gotSpans, gotOK := c.MatchInto(s, buf)
			if cap(gotSpans) > cap(buf) {
				buf = gotSpans
			}
			if wantOK != gotOK {
				t.Fatalf("pattern %v on %q: MatchInto ok=%v, Match ok=%v", p, s, gotOK, wantOK)
			}
			if wantOK && len(p) > 0 && !reflect.DeepEqual(wantSpans, gotSpans[:len(p)]) {
				t.Errorf("pattern %v on %q: MatchInto %v != Match %v", p, s, gotSpans[:len(p)], wantSpans)
			}
		}
	}
	// A buffer with capacity must be returned, filled, without allocating.
	p := patterns[0]
	c := Compile(p)
	big := make([]Span, len(p)+4)
	got, ok := c.MatchInto("(313) 263-1192", big)
	if !ok || len(got) != len(p) || cap(got) != cap(big) {
		t.Errorf("MatchInto did not reuse the caller buffer: ok=%v len=%d cap=%d", ok, len(got), cap(got))
	}
}

// A compiled pattern expands its repeated literals ('/'3) once: matching
// with a reused span buffer allocates nothing per call, for subjects that
// match, fail inside the pattern, and fail the quick checks. (Runs of
// '-' or ' ' would not show a per-call expansion: strings.Repeat serves
// short ones from a static buffer.)
func TestMatchIntoRepeatedLiteralAllocsNothing(t *testing.T) {
	slashes := token.Token{Class: token.Literal, Lit: "/", Quant: 3}
	p := []token.Token{
		token.Base(token.Digit, 3), slashes, token.Base(token.Upper, token.Plus),
		token.Token{Class: token.Literal, Lit: "ab", Quant: 2}, token.Base(token.Digit, 2),
	}
	c := Compile(p)
	subjects := []string{"123///ABabab45", "123//ABabab45", "123///ABab45", "123///A"}
	if _, ok := referenceMatch(p, subjects[0]); !ok {
		t.Fatalf("%q does not match %v", subjects[0], p)
	}
	for _, s := range subjects {
		want, wantOK := referenceMatch(p, s)
		spans, ok := c.MatchInto(s, nil)
		if ok != wantOK || (ok && !reflect.DeepEqual(spans, want)) {
			t.Fatalf("%q: MatchInto = (%v, %v), reference Match = (%v, %v)", s, spans, ok, want, wantOK)
		}
		allocs := testing.AllocsPerRun(100, func() { spans, _ = c.MatchInto(s, spans) })
		if allocs != 0 {
			t.Errorf("%q: MatchInto allocated %v times per call, want 0", s, allocs)
		}
	}
}
