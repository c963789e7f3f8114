package unifi

import (
	"testing"

	"clx/internal/pattern"
)

// CompiledGuardedProgram's Apply, AppendApply and Covers agree with the
// interpreter, GuardedProgram.Apply, on every dispatch outcome: first
// match wins, guards that hold, fail or name a token the source does not
// have, plans that do not fit their source, constant-only plans, and the
// empty pattern and string.
func TestCompiledGuardedProgramMatchesInterpreter(t *testing.T) {
	word := pattern.MustParse("<L>+' '<D>+")
	digits := pattern.MustParse("<D>+")
	cases := []struct {
		name   string
		prog   GuardedProgram
		inputs []string
	}{
		{"first match wins", GuardedProgram{Cases: []GuardedCase{
			{Source: digits, Plan: Plan{Ops: []Op{ConstStr{"first:"}, Extract{1, 1}}}},
			{Source: pattern.MustParse("<D>3"), Plan: Plan{Ops: []Op{ConstStr{"second"}}}},
		}}, []string{"123", "12", "abc", ""}},
		{"guards", GuardedProgram{Cases: []GuardedCase{
			{Source: word, Guard: TokenIs{I: 1, Value: "picture"},
				Plan: Plan{Ops: []Op{ConstStr{"PIC-"}, Extract{3, 3}}}},
			{Source: word, Guard: TokenIs{I: 1, Value: "invoice"},
				Plan: Plan{Ops: []Op{ConstStr{"DOC-"}, Extract{3, 3}}}},
			{Source: word, Guard: TokenIs{I: 9, Value: "receipt"},
				Plan: Plan{Ops: []Op{ConstStr{"out of range"}}}},
			{Source: word, Guard: TokenIs{I: 0, Value: ""},
				Plan: Plan{Ops: []Op{ConstStr{"zero"}}}},
		}}, []string{"picture 001", "invoice 002", "receipt 003", "picture", "9 picture"}},
		{"plan does not fit", GuardedProgram{Cases: []GuardedCase{
			{Source: digits, Plan: Plan{Ops: []Op{ConstStr{"x"}, Extract{1, 2}}}},
			{Source: word, Plan: Plan{Ops: []Op{Extract{2, 1}}}},
			{Source: pattern.MustParse("<U>+"), Plan: Plan{Ops: []Op{Extract{0, 1}}}},
		}}, []string{"42", "ab 1", "XY", "-"}},
		{"constants only", GuardedProgram{Cases: []GuardedCase{
			{Source: word, Plan: Plan{Ops: []Op{ConstStr{"N/A"}}}},
			{Source: digits, Plan: Plan{}},
		}}, []string{"abc 7", "77", "N/A"}},
		{"empty pattern", GuardedProgram{Cases: []GuardedCase{
			{Source: pattern.Pattern{}, Plan: Plan{Ops: []Op{ConstStr{"(empty)"}}}},
			{Source: digits, Plan: Plan{Ops: []Op{Extract{1, 1}, Extract{1, 1}}}},
		}}, []string{"", "5", " "}},
		{"no cases", GuardedProgram{}, []string{"", "x"}},
	}
	for _, tc := range cases {
		cp := tc.prog.Compile()
		for _, in := range tc.inputs {
			want, wantErr := tc.prog.Apply(in)
			got, err := cp.Apply(in)
			if got != want || (err == nil) != (wantErr == nil) {
				t.Errorf("%s: Apply(%q) = %q, %v; interpreter %q, %v",
					tc.name, in, got, err, want, wantErr)
			}
			buf, err := cp.AppendApply([]byte("pre:"), in)
			if err == nil && string(buf) != "pre:"+want || (err == nil) != (wantErr == nil) {
				t.Errorf("%s: AppendApply(%q) = %q, %v; interpreter %q, %v",
					tc.name, in, buf, err, want, wantErr)
			}
			if cp.Covers(in) != (wantErr == nil) {
				t.Errorf("%s: Covers(%q) = %v; interpreter error %v",
					tc.name, in, cp.Covers(in), wantErr)
			}
		}
	}
}
