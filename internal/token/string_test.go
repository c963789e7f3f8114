package token_test

import (
	"fmt"
	"strings"
	"testing"

	"clx/internal/benchsuite"
	"clx/internal/cluster"
	"clx/internal/token"
	"clx/internal/tokenize"
)

// referenceString is Token.String as it was written before AppendString:
// escape with two ReplaceAll passes, number through fmt.
func referenceString(t token.Token) string {
	if t.IsLiteral() {
		body := strings.ReplaceAll(t.Lit, `\`, `\\`)
		body = strings.ReplaceAll(body, `'`, `\'`)
		s := "'" + body + "'"
		if t.Quant == token.Plus {
			return s + "+"
		}
		if t.Quant > 1 {
			return fmt.Sprintf("%s%d", s, t.Quant)
		}
		return s
	}
	if t.Quant == token.Plus {
		return t.Class.String() + "+"
	}
	if t.Quant == 1 {
		return t.Class.String()
	}
	return fmt.Sprintf("%s%d", t.Class.String(), t.Quant)
}

func checkRendering(t *testing.T, tok token.Token) {
	t.Helper()
	want := referenceString(tok)
	if got := tok.String(); got != want {
		t.Fatalf("String(%#v) = %q, reference %q", tok, got, want)
	}
	prefix := []byte("x")
	if got := string(tok.AppendString(prefix)); got != "x"+want {
		t.Fatalf("AppendString(%#v) = %q, want %q", tok, got, "x"+want)
	}
}

// Every token of every pattern the benchmark suite profiles to, at every
// hierarchy level, and of every desired output, renders byte-identically
// to the reference.
func TestAppendStringMatchesReferenceSuite(t *testing.T) {
	seen := map[token.Token]bool{}
	check := func(tok token.Token) {
		if !seen[tok] {
			seen[tok] = true
			checkRendering(t, tok)
		}
	}
	for _, task := range benchsuite.Tasks() {
		h := cluster.Profile(task.Inputs, cluster.DefaultOptions())
		for _, level := range h.Levels {
			for _, n := range level {
				for _, tok := range n.Pattern.Tokens() {
					check(tok)
				}
			}
		}
		for _, out := range task.Outputs {
			for _, tok := range tokenize.Tokenize(out) {
				check(tok)
			}
		}
	}
	if len(seen) < 50 {
		t.Fatalf("suite yielded %d distinct tokens, want >= 50", len(seen))
	}
}

func TestAppendStringEscapesAndQuantifiers(t *testing.T) {
	for _, lit := range []string{"'", `\`, `\'`, `'\`, "a'b", `a\b`, "''", `\\`, "é", "\x00"} {
		for _, q := range []int{1, 2, 12, token.Plus, 0} {
			checkRendering(t, token.Token{Class: token.Literal, Lit: lit, Quant: q})
		}
	}
	for _, c := range append(token.BaseClasses[:], token.Class(9)) {
		for _, q := range []int{1, 2, 10, 123, token.Plus, 0, -7} {
			checkRendering(t, token.Token{Class: c, Quant: q})
		}
	}
}
