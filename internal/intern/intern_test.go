package intern

import (
	"fmt"
	"sync"
	"testing"

	"clx/internal/token"
	"clx/internal/tokenize"
)

func TestInternIdentity(t *testing.T) {
	tbl := NewTable()
	a := tbl.Intern(tokenize.Tokenize("(734) 645-8397"))
	b := tbl.Intern(tokenize.Tokenize("(313) 263-1192")) // same shape
	c := tbl.Intern(tokenize.Tokenize("734-422-8073"))   // different shape
	if a != b {
		t.Errorf("equal sequences got distinct ids %d, %d", a, b)
	}
	if a == c {
		t.Error("distinct sequences share an id")
	}
	if got := tbl.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
}

func TestInternCanonicalTokens(t *testing.T) {
	tbl := NewTable()
	toks := tokenize.Tokenize("Dr. Who42")
	id := tbl.Intern(toks)
	got := tbl.Tokens(id)
	if len(got) != len(toks) {
		t.Fatalf("Tokens(%d) has %d tokens, want %d", id, len(got), len(toks))
	}
	for i := range toks {
		if got[i] != toks[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], toks[i])
		}
	}
	// The canonical copy must not alias the caller's buffer.
	toks[0] = token.Lit("CLOBBER")
	if tbl.Tokens(id)[0] == toks[0] {
		t.Error("interned sequence aliases the caller's mutated slice")
	}
}

// TestInternScratchBufferReuse pins the hot-path contract: interning from a
// truncated-and-refilled scratch buffer yields stable ids.
func TestInternScratchBufferReuse(t *testing.T) {
	tbl := NewTable()
	buf := make([]token.Token, 0, 32)
	values := []string{"734-422-8073", "ab12", "734-422-8073", "(1) 2", "ab12"}
	ids := make([]PatternID, len(values))
	for i, v := range values {
		buf = tokenize.AppendTokenize(buf[:0], v)
		ids[i] = tbl.Intern(buf)
	}
	if ids[0] != ids[2] || ids[1] != ids[4] {
		t.Errorf("repeat values changed ids: %v", ids)
	}
	if ids[0] == ids[1] || ids[0] == ids[3] || ids[1] == ids[3] {
		t.Errorf("distinct shapes collide: %v", ids)
	}
}

// TestHashSensitivity checks the key covers every token component: class,
// quantifier (including '+'), and literal content.
func TestHashSensitivity(t *testing.T) {
	pairs := [][2][]token.Token{
		{{token.Base(token.Digit, 3)}, {token.Base(token.Lower, 3)}},
		{{token.Base(token.Digit, 3)}, {token.Base(token.Digit, 4)}},
		{{token.Base(token.Digit, 1)}, {token.Base(token.Digit, token.Plus)}},
		{{token.Lit("a")}, {token.Lit("b")}},
		{{token.Lit("ab")}, {token.Lit("a"), token.Lit("b")}},
		{{token.Lit("-")}, {token.Base(token.AlphaNum, 1)}},
	}
	for i, p := range pairs {
		if Hash(p[0]) == Hash(p[1]) {
			t.Errorf("pair %d: distinct sequences hash equal (%v vs %v)", i, p[0], p[1])
		}
	}
	// Equal content must hash equal regardless of backing storage.
	a := tokenize.Tokenize("x1-y2")
	b := tokenize.AppendTokenize(make([]token.Token, 0, 8), "x1-y2")
	if Hash(a) != Hash(b) {
		t.Error("equal sequences hash differently")
	}
}

func TestInternConcurrent(t *testing.T) {
	tbl := NewTable()
	const goroutines = 8
	const distinct = 200
	ids := make([][]PatternID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]PatternID, distinct)
			for i := 0; i < distinct; i++ {
				// Distinct sequences: vary both a fixed quantifier and a
				// literal so every i maps to its own pattern shape.
				toks := []token.Token{
					token.Base(token.Digit, i+1),
					token.Lit(fmt.Sprintf("#%d", i)),
				}
				ids[g][i] = tbl.Intern(toks)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range ids[g] {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d sees id %d for value %d, goroutine 0 sees %d",
					g, ids[g][i], i, ids[0][i])
			}
		}
	}
	if got := tbl.Len(); got != distinct {
		t.Errorf("Len = %d, want %d", got, distinct)
	}
}

// TestInternConcurrentShardGrowth models the sharded-profile caller: many
// workers interning large, heavily-overlapping pattern sets that force
// every shard's bucket map and canonical-sequence slice to grow while
// other goroutines concurrently resolve ids back to tokens and read Len.
// Identity must hold (equal sequences → equal id), every id must resolve
// to its exact sequence, and the final table must hold exactly the
// distinct set. The race tier runs this with -race.
func TestInternConcurrentShardGrowth(t *testing.T) {
	tbl := NewTable()
	const goroutines = 8
	const distinct = 1500 // >> 16 shards, so every shard grows repeatedly

	seq := func(i int) []token.Token {
		// Mix shapes so literals, quantifiers, and classes all vary and
		// hash across shards.
		return []token.Token{
			token.Base(token.Digit, 1+i%9),
			token.Lit(fmt.Sprintf("v%d", i)),
			token.Base(token.Upper, token.Plus),
		}
	}

	ids := make([][]PatternID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = make([]PatternID, distinct)
			buf := make([]token.Token, 0, 8)
			for i := 0; i < distinct; i++ {
				// Reused scratch buffer, like the profile workers.
				buf = append(buf[:0], seq(i)...)
				id := tbl.Intern(buf)
				ids[g][i] = id
				// Interleave reads with concurrent growth.
				if i%7 == 0 {
					if got := tbl.Tokens(id); !tokensEqual(got, seq(i)) {
						t.Errorf("Tokens(%d) = %v, want %v", id, got, seq(i))
						return
					}
					_ = tbl.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range ids[g] {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d sees id %d for sequence %d, goroutine 0 sees %d",
					g, ids[g][i], i, ids[0][i])
			}
		}
	}
	if got := tbl.Len(); got != distinct {
		t.Errorf("Len = %d, want %d", got, distinct)
	}
	for i := 0; i < distinct; i++ {
		if got := tbl.Tokens(ids[0][i]); !tokensEqual(got, seq(i)) {
			t.Fatalf("canonical sequence %d corrupted: %v", i, got)
		}
	}
}

// TestHashString covers the exported value-sharding hash: equality on
// equal strings, sensitivity to content (including bytes beyond the
// 8-byte fold boundary), and stability for the shapes the sharded index
// partitions — empty strings, CRLF, and multi-byte UTF-8.
func TestHashString(t *testing.T) {
	if HashString("") != HashString("") {
		t.Error("empty string hash is unstable")
	}
	pairs := [][2]string{
		{"", "a"},
		{"a", "b"},
		{"ab", "ba"},
		{"12345678", "123456789"},          // boundary of the 8-byte fold
		{"abcdefghX", "abcdefghY"},         // tail byte beyond the fold
		{"line1\nline2", "line1\r\nline2"}, // CRLF vs LF
		{"café", "café"},                  // composed vs decomposed UTF-8
		{"日本", "日木"},                       // multi-byte, one byte apart
	}
	for _, p := range pairs {
		if HashString(p[0]) == HashString(p[1]) {
			t.Errorf("HashString(%q) == HashString(%q)", p[0], p[1])
		}
	}
	// Same content, different backing storage.
	s := "x1-y2-z3"
	if HashString(s[:4]) != HashString(string([]byte(s[:4]))) {
		t.Error("equal strings hash differently")
	}
}

func BenchmarkIntern(b *testing.B) {
	tbl := NewTable()
	toks := tokenize.Tokenize("(734) 645-8397")
	tbl.Intern(toks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Intern(toks)
	}
}
