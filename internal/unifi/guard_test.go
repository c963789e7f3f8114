package unifi

import (
	"errors"
	"strings"
	"testing"

	"clx/internal/pattern"
)

func guardedPicture() GuardedProgram {
	src := pattern.MustParse("<L>+' '<D>+")
	return GuardedProgram{Cases: []GuardedCase{
		{
			Source: src,
			Guard:  TokenIs{I: 1, Value: "picture"},
			Plan:   Plan{Ops: []Op{ConstStr{"PIC-"}, Extract{3, 3}}},
		},
		{
			Source: src,
			Guard:  TokenIs{I: 1, Value: "invoice"},
			Plan:   Plan{Ops: []Op{ConstStr{"DOC-"}, Extract{3, 3}}},
		},
	}}
}

func TestGuardedProgramDispatch(t *testing.T) {
	gp := guardedPicture()
	tests := map[string]string{
		"picture 001": "PIC-001",
		"invoice 042": "DOC-042",
	}
	for in, want := range tests {
		got, err := gp.Apply(in)
		if err != nil || got != want {
			t.Errorf("Apply(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := gp.Apply("receipt 001"); !errors.Is(err, ErrNoMatch) {
		t.Errorf("unknown keyword err = %v, want ErrNoMatch", err)
	}
	if _, err := gp.Apply("no digits here"); !errors.Is(err, ErrNoMatch) {
		t.Errorf("non-matching pattern err = %v, want ErrNoMatch", err)
	}
}

func TestGuardedProgramOrder(t *testing.T) {
	// The first case whose guard holds wins; an unconditional case after a
	// guarded one acts as the default branch.
	src := pattern.MustParse("<L>+' '<D>+")
	gp := GuardedProgram{Cases: []GuardedCase{
		{
			Source: src,
			Guard:  TokenIs{I: 1, Value: "picture"},
			Plan:   Plan{Ops: []Op{ConstStr{"PIC-"}, Extract{3, 3}}},
		},
		{
			Source: src,
			Plan:   Plan{Ops: []Op{ConstStr{"OTHER-"}, Extract{3, 3}}},
		},
	}}
	got, _ := gp.Apply("picture 001")
	if got != "PIC-001" {
		t.Errorf("guarded case should win: %q", got)
	}
	got, _ = gp.Apply("anything 002")
	if got != "OTHER-002" {
		t.Errorf("default case should catch the rest: %q", got)
	}
}

func TestGuardedProgramString(t *testing.T) {
	s := guardedPicture().String()
	if !strings.Contains(s, `&& token 1 is "picture"`) {
		t.Errorf("rendering = %q", s)
	}
	if !strings.Contains(s, "Switch(") {
		t.Errorf("rendering = %q", s)
	}
}

// A compiled Program (through its Lift) behaves exactly like Program on
// every input.
func TestCompiledProgramEquivalence(t *testing.T) {
	prog := Program{Cases: []Case{
		{
			Source: pattern.MustParse("'('<D>3')'' '<D>3'-'<D>4"),
			Plan: Plan{Ops: []Op{
				Extract{2, 2}, ConstStr{"-"}, Extract{5, 7},
			}},
		},
		{
			Source: pattern.MustParse("<D>3'.'<D>3'.'<D>4"),
			Plan: Plan{Ops: []Op{
				Extract{1, 1}, ConstStr{"-"}, Extract{3, 3}, ConstStr{"-"}, Extract{5, 5},
			}},
		},
	}}
	cp := prog.Lift().Compile()
	inputs := []string{
		"(734) 645-8397", "734.236.3466", "N/A", "", "(99) 111-2222",
		"(123) 456-7890", "111.222.3333",
	}
	for _, in := range inputs {
		want, wantErr := prog.Apply(in)
		got, gotErr := cp.Apply(in)
		if (wantErr == nil) != (gotErr == nil) || got != want {
			t.Errorf("Apply(%q): compiled (%q,%v) != plain (%q,%v)",
				in, got, gotErr, want, wantErr)
		}
	}
}

func TestCompiledProgramConcurrent(t *testing.T) {
	prog := Program{Cases: []Case{{
		Source: pattern.MustParse("<D>3'.'<D>3'.'<D>4"),
		Plan: Plan{Ops: []Op{
			Extract{1, 1}, ConstStr{"-"}, Extract{3, 3}, ConstStr{"-"}, Extract{5, 5},
		}},
	}}}
	cp := prog.Lift().Compile()
	done := make(chan bool, 4)
	for g := 0; g < 4; g++ {
		go func() {
			ok := true
			for i := 0; i < 300; i++ {
				out, err := cp.Apply("734.236.3466")
				if err != nil || out != "734-236-3466" {
					ok = false
					break
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 4; g++ {
		if !<-done {
			t.Fatal("concurrent compiled apply failed")
		}
	}
}
