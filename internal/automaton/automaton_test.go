package automaton_test

import (
	"bytes"
	"errors"
	"testing"

	"clx/internal/automaton"
	"clx/internal/obs"
	"clx/internal/pattern"
	"clx/internal/rematch"
	"clx/internal/token"
	"clx/internal/unifi"
)

func mustCompile(t *testing.T, gp unifi.GuardedProgram) *automaton.Machine {
	t.Helper()
	m, err := automaton.Compile(gp)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return m
}

// refSelect mirrors the reference engine's case-selection loop: first case
// whose pattern matches and guard holds.
func refSelect(gp unifi.GuardedProgram, s string) (int, []rematch.Span, bool) {
	for i, c := range gp.Cases {
		spans, ok := c.Source.Match(s)
		if !ok {
			continue
		}
		if c.Guard != nil && !c.Guard.Holds(c.Source, s) {
			continue
		}
		return i, spans, true
	}
	return 0, nil, false
}

// checkParity asserts the automaton and the reference engine agree on s in
// every observable way: Apply output/error, AppendApply bytes/error, and
// the chosen case and its spans.
func checkParity(t *testing.T, gp unifi.GuardedProgram, m *automaton.Machine, s string) {
	t.Helper()
	ref := gp.Compile()
	wantOut, wantErr := ref.Apply(s)
	gotOut, gotErr := m.Apply(s)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("Apply(%q): error mismatch: ref %v, automaton %v", s, wantErr, gotErr)
	}
	if wantErr != nil {
		if errors.Is(wantErr, unifi.ErrNoMatch) != errors.Is(gotErr, unifi.ErrNoMatch) {
			t.Fatalf("Apply(%q): ErrNoMatch mismatch: ref %v, automaton %v", s, wantErr, gotErr)
		}
		if !errors.Is(wantErr, unifi.ErrNoMatch) && wantErr.Error() != gotErr.Error() {
			t.Fatalf("Apply(%q): plan error mismatch: ref %q, automaton %q", s, wantErr, gotErr)
		}
	} else if wantOut != gotOut {
		t.Fatalf("Apply(%q): ref %q, automaton %q", s, wantOut, gotOut)
	}

	prefix := []byte("pre|")
	wantB, wantBErr := ref.AppendApply(append([]byte(nil), prefix...), s)
	a := m.NewArena()
	gotB, gotBErr := m.AppendApply(append([]byte(nil), prefix...), s, a)
	if (wantBErr == nil) != (gotBErr == nil) || !bytes.Equal(wantB, gotB) {
		t.Fatalf("AppendApply(%q): ref (%q, %v), automaton (%q, %v)", s, wantB, wantBErr, gotB, gotBErr)
	}

	wantCase, wantSpans, wantOK := refSelect(gp, s)
	gotCase, gotSpans, gotOK := m.Match(s)
	if wantOK != gotOK || wantCase != gotCase {
		t.Fatalf("Match(%q): ref (case %d, %v), automaton (case %d, %v)", s, wantCase, wantOK, gotCase, gotOK)
	}
	if wantOK && len(wantSpans) != len(gotSpans) {
		t.Fatalf("Match(%q): span count: ref %v, automaton %v", s, wantSpans, gotSpans)
	}
	for i := range wantSpans {
		if wantSpans[i] != gotSpans[i] {
			t.Fatalf("Match(%q): span %d: ref %v, automaton %v", s, i, wantSpans, gotSpans)
		}
	}
}

func TestAutomatonPhonesProgram(t *testing.T) {
	gp := unifi.GuardedProgram{Cases: []unifi.GuardedCase{
		{
			Source: pattern.MustParse(`'('<D>3') '<D>3'-'<D>4`),
			Plan: unifi.Plan{Ops: []unifi.Op{
				unifi.Extract{I: 2, J: 2}, unifi.ConstStr{S: "-"},
				unifi.Extract{I: 4, J: 4}, unifi.ConstStr{S: "-"},
				unifi.Extract{I: 6, J: 6},
			}},
		},
		{
			Source: pattern.MustParse(`<D>3'.'<D>3'.'<D>4`),
			Plan: unifi.Plan{Ops: []unifi.Op{
				unifi.Extract{I: 1, J: 1}, unifi.ConstStr{S: "-"},
				unifi.Extract{I: 3, J: 3}, unifi.ConstStr{S: "-"},
				unifi.Extract{I: 5, J: 5},
			}},
		},
	}}
	m := mustCompile(t, gp)
	for _, s := range []string{
		"(734) 645-8397", "734.645.8397", "734-645-8397", "7346458397",
		"(734)645-8397", "", "734.645.839", "(734) 645-83970", "x",
	} {
		checkParity(t, gp, m, s)
	}
	if got, err := m.Apply("(734) 645-8397"); err != nil || got != "734-645-8397" {
		t.Fatalf("Apply = (%q, %v), want 734-645-8397", got, err)
	}
}

func TestAutomatonGreedySpans(t *testing.T) {
	// The ambiguous-class corpora from rematch_test: overlapping classes and
	// literal-run patterns where greedy extent choice is observable.
	cases := []struct {
		pat  string
		subs []string
	}{
		{`<AN>+'.'<D>4`, []string{"abc123.2019", "a.2019", "-.2019", ".2019", "abc.123.2019"}},
		{`<AN>+<D>+`, []string{"ab12", "1", "12", "a1", "ab", "111"}},
		{`'ab'+<D>`, []string{"ababab1", "ab1", "aba1", "abab", "1"}},
		{`<AN>+' '<AN>+`, []string{"a b c", "a  b", "x y", "  "}},
		{`<A>+<AN>+<D>2`, []string{"ab1c22", "xyz99", "a122", "ab99"}},
	}
	for _, c := range cases {
		gp := unifi.GuardedProgram{Cases: []unifi.GuardedCase{{
			Source: pattern.MustParse(c.pat),
			Plan:   unifi.Plan{Ops: []unifi.Op{unifi.Extract{I: 1, J: 1}}},
		}}}
		m := mustCompile(t, gp)
		for _, s := range c.subs {
			checkParity(t, gp, m, s)
		}
	}
}

func TestAutomatonGuardDispatch(t *testing.T) {
	src := pattern.MustParse(`<L>+' '<D>3`)
	gp := unifi.GuardedProgram{Cases: []unifi.GuardedCase{
		{Source: src, Guard: unifi.TokenIs{I: 1, Value: "picture"},
			Plan: unifi.Plan{Ops: []unifi.Op{unifi.ConstStr{S: "P-"}, unifi.Extract{I: 3, J: 3}}}},
		{Source: src, Guard: unifi.TokenIs{I: 1, Value: "invoice"},
			Plan: unifi.Plan{Ops: []unifi.Op{unifi.ConstStr{S: "I-"}, unifi.Extract{I: 3, J: 3}}}},
		{Source: src,
			Plan: unifi.Plan{Ops: []unifi.Op{unifi.ConstStr{S: "X-"}, unifi.Extract{I: 3, J: 3}}}},
	}}
	m := mustCompile(t, gp)
	for _, s := range []string{"picture 123", "invoice 456", "receipt 789", "picture123", "picture  12"} {
		checkParity(t, gp, m, s)
	}
	if got, _ := m.Apply("invoice 456"); got != "I-456" {
		t.Fatalf("guard dispatch: got %q, want I-456", got)
	}
}

func TestAutomatonDeadGuardCase(t *testing.T) {
	// A guard naming a token past the pattern can never hold; the case must
	// be compiled out with later cases still reachable — the reference
	// engine's holdsSpans returns false for it on every row.
	src := pattern.MustParse(`<D>3`)
	gp := unifi.GuardedProgram{Cases: []unifi.GuardedCase{
		{Source: src, Guard: unifi.TokenIs{I: 5, Value: "x"},
			Plan: unifi.Plan{Ops: []unifi.Op{unifi.ConstStr{S: "dead"}}}},
		{Source: src, Plan: unifi.Plan{Ops: []unifi.Op{unifi.ConstStr{S: "live"}}}},
	}}
	m := mustCompile(t, gp)
	checkParity(t, gp, m, "123")
	if got, _ := m.Apply("123"); got != "live" {
		t.Fatalf("dead-guard case selected: got %q", got)
	}
}

func TestAutomatonIdentityCase(t *testing.T) {
	target := pattern.MustParse(`<D>3'-'<D>4`)
	gp := unifi.GuardedProgram{Cases: []unifi.GuardedCase{{
		Source: pattern.MustParse(`<D>7`),
		Plan: unifi.Plan{Ops: []unifi.Op{
			unifi.Extract{I: 1, J: 1}, // whole run; would mangle a clean row
		}},
	}}}
	m, err := automaton.CompileSaved(target, gp)
	if err != nil {
		t.Fatalf("CompileSaved: %v", err)
	}
	if got, err := m.Apply("645-8397"); err != nil || got != "645-8397" {
		t.Fatalf("identity row: (%q, %v), want passthrough", got, err)
	}
	if got, err := m.Apply("6458397"); err != nil || got != "6458397" {
		t.Fatalf("source row: (%q, %v)", got, err)
	}
	if _, err := m.Apply("abc"); !errors.Is(err, unifi.ErrNoMatch) {
		t.Fatalf("uncovered row: err = %v, want ErrNoMatch", err)
	}
	if m.Cases() != 2 {
		t.Fatalf("Cases() = %d, want 2 (identity + 1)", m.Cases())
	}
}

func TestAutomatonPlanErrorParity(t *testing.T) {
	gp := unifi.GuardedProgram{Cases: []unifi.GuardedCase{{
		Source: pattern.MustParse(`<D>3`),
		Plan: unifi.Plan{Ops: []unifi.Op{
			unifi.ConstStr{S: "pre-"}, unifi.Extract{I: 2, J: 9}, unifi.ConstStr{S: "-post"},
		}},
	}}}
	m := mustCompile(t, gp)
	checkParity(t, gp, m, "123")
	_, err := m.Apply("123")
	want := "unifi: Extract(2,9) out of range for source of 1 tokens"
	if err == nil || err.Error() != want {
		t.Fatalf("plan error = %v, want %q", err, want)
	}
	// The partial prefix before the failing op must append, like the
	// reference appendSpans.
	out, err := m.AppendApply([]byte("x|"), "123", m.NewArena())
	if err == nil || string(out) != "x|pre-" {
		t.Fatalf("partial append = (%q, %v)", out, err)
	}
}

type opaqueGuard struct{}

func (opaqueGuard) String() string                         { return "opaque" }
func (opaqueGuard) Holds(_ pattern.Pattern, _ string) bool { return true }

func TestAutomatonFallbacks(t *testing.T) {
	before := obs.Default.Stats()
	plan := unifi.Plan{Ops: []unifi.Op{unifi.ConstStr{S: "y"}}}

	var wide unifi.GuardedProgram
	for i := 0; i < 65; i++ {
		wide.Cases = append(wide.Cases, unifi.GuardedCase{Source: pattern.MustParse(`<D>`), Plan: plan})
	}
	if _, err := automaton.Compile(wide); err == nil {
		t.Fatal("65-case program compiled; want fallback")
	}

	guarded := unifi.GuardedProgram{Cases: []unifi.GuardedCase{
		{Source: pattern.MustParse(`<D>`), Guard: opaqueGuard{}, Plan: plan}}}
	if _, err := automaton.Compile(guarded); err == nil {
		t.Fatal("opaque guard compiled; want fallback")
	}

	zeroQuant := unifi.GuardedProgram{Cases: []unifi.GuardedCase{
		{Source: pattern.Of(token.Token{Class: token.Digit, Quant: 0}), Plan: plan}}}
	if _, err := automaton.Compile(zeroQuant); err == nil {
		t.Fatal("zero-quant token compiled; want fallback")
	}

	ok := unifi.GuardedProgram{Cases: []unifi.GuardedCase{
		{Source: pattern.MustParse(`<D>3`), Plan: plan}}}
	if _, err := automaton.Compile(ok); err != nil {
		t.Fatalf("plain program fell back: %v", err)
	}

	after := obs.Default.Stats()
	fallback := after["automaton.fallback"] - before["automaton.fallback"]
	compiled := after["automaton.compiled"] - before["automaton.compiled"]
	if fallback != 3 || compiled != 1 {
		t.Fatalf("stats moved by %d fallbacks / %d compiled, want 3 / 1", fallback, compiled)
	}
}

func TestAutomatonZeroAllocSteadyState(t *testing.T) {
	gp := unifi.GuardedProgram{Cases: []unifi.GuardedCase{{
		Source: pattern.MustParse(`<AN>+'.'<D>4`),
		Plan:   unifi.Plan{Ops: []unifi.Op{unifi.Extract{I: 3, J: 3}, unifi.ConstStr{S: "/"}, unifi.Extract{I: 1, J: 1}}},
	}}}
	m := mustCompile(t, gp)
	a := m.NewArena()
	dst := make([]byte, 0, 1024)
	subjects := []string{"abc123.2019", "x.1999", "a-b c.2024"}
	// Warm the arena, then measure.
	for _, s := range subjects {
		if _, err := m.AppendApply(dst, s, a); err != nil {
			t.Fatalf("warmup: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, s := range subjects {
			dst = dst[:0]
			var err error
			if dst, err = m.AppendApply(dst, s, a); err != nil {
				t.Fatalf("AppendApply: %v", err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state AppendApply allocates %.1f per run, want 0", allocs)
	}
}

// litAlphabet maps fuzz bytes onto characters that exercise every token
// class plus the literal set the generator draws from.
const litAlphabet = "ab zAB19-._()é\xff"

// fuzz literal pool: shared with genProgram and the subject mapping so
// generated patterns actually hit generated subjects.
var fuzzLits = []string{"-", ".", " ", "ab", "(", ")", "_"}

// genProgram decodes fuzz bytes into an arbitrary guarded program: 1-4
// cases, each 1-4 tokens (fixed/plus, class/literal), an optional TokenIs
// guard (sometimes out of range), and a 1-3 op plan whose Extract ranges
// are sometimes invalid — the same space the reference engine accepts.
func genProgram(data []byte) (unifi.GuardedProgram, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	classes := []token.Class{token.Digit, token.Lower, token.Upper, token.Alpha, token.AlphaNum}
	var gp unifi.GuardedProgram
	nCases := 1 + int(next())%4
	for ci := 0; ci < nCases; ci++ {
		nToks := 1 + int(next())%4
		toks := make([]token.Token, 0, nToks)
		for ti := 0; ti < nToks; ti++ {
			b := next()
			switch b % 8 {
			case 0, 1, 2:
				toks = append(toks, token.Base(classes[int(b/8)%len(classes)], token.Plus))
			case 3, 4, 5:
				toks = append(toks, token.Base(classes[int(b/8)%len(classes)], 1+int(b/64)%3))
			case 6:
				toks = append(toks, token.Lit(fuzzLits[int(b/8)%len(fuzzLits)]))
			default:
				toks = append(toks, token.Token{Class: token.Literal,
					Lit: fuzzLits[int(b/8)%len(fuzzLits)], Quant: token.Plus})
			}
		}
		c := unifi.GuardedCase{Source: pattern.Of(toks...)}
		if g := next(); g%4 == 0 {
			c.Guard = unifi.TokenIs{I: int(g/4) % (nToks + 2), Value: fuzzLits[int(g)%len(fuzzLits)]}
		}
		nOps := 1 + int(next())%3
		for oi := 0; oi < nOps; oi++ {
			b := next()
			if b%2 == 0 {
				c.Plan.Ops = append(c.Plan.Ops, unifi.ConstStr{S: fuzzLits[int(b/2)%len(fuzzLits)]})
			} else {
				i := int(b/2) % (nToks + 2)
				j := i + int(b/32)%2
				c.Plan.Ops = append(c.Plan.Ops, unifi.Extract{I: i, J: j})
			}
		}
		gp.Cases = append(gp.Cases, c)
	}
	return gp, data
}

// FuzzAutomatonVsReference is the differential fuzz layer of the tentpole:
// for arbitrary programs and subjects the automaton must agree with the
// backtracking engine on match/no-match, chosen case, token spans, rendered
// output, and errors. Programs the compiler can't lower are skipped — those
// run on the reference engine in production too.
func FuzzAutomatonVsReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 16, 1, 3}, "abc123.2019", true)
	f.Add([]byte{1, 2, 0, 24, 2, 2, 5}, "ab12", true)
	f.Add([]byte{0, 1, 55, 0, 1}, "ababab1", false)
	f.Add([]byte{2, 2, 0, 0, 4, 1, 1, 2, 16, 0, 3}, "aa zz 19", true)
	f.Add([]byte{3, 3, 8, 9, 10, 0, 2, 6, 14, 1, 1, 7}, "(ab) 9", false)
	f.Fuzz(func(t *testing.T, progData []byte, subject string, mapped bool) {
		gp, _ := genProgram(progData)
		m, err := automaton.Compile(gp)
		if err != nil {
			t.Skip("program not lowerable; reference engine serves it")
		}
		if mapped {
			// Project the subject onto the generator's alphabet so matches
			// are common; the raw branch keeps arbitrary (incl. non-ASCII)
			// bytes covered.
			b := []byte(subject)
			for i := range b {
				b[i] = litAlphabet[int(b[i])%len(litAlphabet)]
			}
			subject = string(b)
		}
		checkFuzzParity(t, gp, m, subject)
	})
}

func checkFuzzParity(t *testing.T, gp unifi.GuardedProgram, m *automaton.Machine, s string) {
	ref := gp.Compile()
	wantOut, wantErr := ref.Apply(s)
	gotOut, gotErr := m.Apply(s)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("Apply(%q) on %s:\nref (%q, %v)\nautomaton (%q, %v)", s, gp, wantOut, wantErr, gotOut, gotErr)
	case wantErr != nil:
		if errors.Is(wantErr, unifi.ErrNoMatch) != errors.Is(gotErr, unifi.ErrNoMatch) ||
			wantErr.Error() != gotErr.Error() {
			t.Fatalf("Apply(%q) on %s: error mismatch:\nref %v\nautomaton %v", s, gp, wantErr, gotErr)
		}
	case wantOut != gotOut:
		t.Fatalf("Apply(%q) on %s:\nref %q\nautomaton %q", s, gp, wantOut, gotOut)
	}

	wantB, wantBErr := ref.AppendApply(nil, s)
	gotB, gotBErr := m.AppendApply(nil, s, m.NewArena())
	if !bytes.Equal(wantB, gotB) || (wantBErr == nil) != (gotBErr == nil) {
		t.Fatalf("AppendApply(%q) on %s:\nref (%q, %v)\nautomaton (%q, %v)", s, gp, wantB, wantBErr, gotB, gotBErr)
	}

	wantCase, wantSpans, wantOK := refSelect(gp, s)
	gotCase, gotSpans, gotOK := m.Match(s)
	if wantOK != gotOK || wantCase != gotCase || len(wantSpans) != len(gotSpans) {
		t.Fatalf("Match(%q) on %s:\nref (case %d, %v, %v)\nautomaton (case %d, %v, %v)",
			s, gp, wantCase, wantSpans, wantOK, gotCase, gotSpans, gotOK)
	}
	for i := range wantSpans {
		if wantSpans[i] != gotSpans[i] {
			t.Fatalf("Match(%q) on %s: span %d: ref %v, automaton %v", s, gp, i, wantSpans, gotSpans)
		}
	}
}
