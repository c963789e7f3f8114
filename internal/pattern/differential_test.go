package pattern_test

import (
	"math/rand"
	"regexp"
	"testing"

	"clx/internal/pattern"
	"clx/internal/rematch"
	"clx/internal/token"
)

// Differential test: the POSIX-style regex strings CLX displays
// (Pattern.Regex) must agree with the span matcher that actually executes
// the Replace operations. Go's regexp engine is the independent referee.
//
// This is exactly the guarantee the user relies on when they read the
// shown regexp and trust it describes what will happen.
func TestMatcherAgreesWithRegexp(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	classes := []token.Class{token.Digit, token.Lower, token.Upper, token.Alpha, token.AlphaNum}
	puncts := []string{"-", ".", " ", "(", ")", "/", "+", "@"}

	randPattern := func() pattern.Pattern {
		n := 1 + r.Intn(6)
		var toks []token.Token
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				toks = append(toks, token.Lit(puncts[r.Intn(len(puncts))]))
				continue
			}
			q := 1 + r.Intn(3)
			if r.Intn(3) == 0 {
				q = token.Plus
			}
			toks = append(toks, token.Base(classes[r.Intn(len(classes))], q))
		}
		return pattern.Of(toks...)
	}
	randSubject := func() string {
		const alphabet = "abcXYZ019 -._()/@+"
		n := r.Intn(14)
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		return string(b)
	}

	for trial := 0; trial < 400; trial++ {
		p := randPattern()
		re, err := regexp.Compile(p.Regex())
		if err != nil {
			t.Fatalf("displayed regex %q does not compile: %v", p.Regex(), err)
		}
		for probe := 0; probe < 20; probe++ {
			s := randSubject()
			want := re.MatchString(s)
			got := rematch.Compile(p.Tokens()).Matches(s)
			if got != want {
				t.Fatalf("pattern %s (regex %q) on %q: matcher=%v regexp=%v",
					p, p.Regex(), s, got, want)
			}
		}
	}
}

// The grouped form with capture groups compiles and captures the same
// fragments the span matcher extracts.
func TestGroupedRegexAgreesWithSpans(t *testing.T) {
	cases := []struct {
		pat    string
		groups [][2]int
		input  string
	}{
		{"'('<D>3')'' '<D>3'-'<D>4", [][2]int{{1, 2}, {4, 5}, {6, 7}}, "(734) 645-8397"},
		{"<U>+'-'<D>+", [][2]int{{0, 1}, {2, 3}}, "CPT-00350"},
		{"<L>+'@'<L>+'.'<L>+", [][2]int{{0, 3}}, "bob@gmail.com"},
	}
	for _, tc := range cases {
		p := pattern.MustParse(tc.pat)
		re, err := regexp.Compile(p.GroupedRegex(tc.groups))
		if err != nil {
			t.Fatalf("grouped regex %q: %v", p.GroupedRegex(tc.groups), err)
		}
		m := re.FindStringSubmatch(tc.input)
		if m == nil {
			t.Fatalf("regexp did not match %q", tc.input)
		}
		spans, ok := rematch.Compile(p.Tokens()).Match(tc.input)
		if !ok {
			t.Fatalf("matcher did not match %q", tc.input)
		}
		for gi, g := range tc.groups {
			want := tc.input[spans[g[0]].Start:spans[g[1]-1].End]
			if m[gi+1] != want {
				t.Errorf("pattern %s group %d: regexp %q, spans %q", tc.pat, gi+1, m[gi+1], want)
			}
		}
	}
}
