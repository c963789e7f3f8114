package unifi

import (
	"errors"
	"reflect"
	"testing"

	"clx/internal/pattern"
)

func TestOpString(t *testing.T) {
	tests := []struct {
		op   Op
		want string
	}{
		{Extract{1, 1}, "Extract(1)"},
		{Extract{1, 4}, "Extract(1,4)"},
		{ConstStr{"]"}, `ConstStr("]")`},
	}
	for _, tc := range tests {
		if got := tc.op.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.op, got, tc.want)
		}
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Ops: []Op{Extract{1, 4}, ConstStr{"]"}}}
	want := `Concat(Extract(1,4),ConstStr("]"))`
	if got := p.String(); got != want {
		t.Errorf("Plan.String() = %q, want %q", got, want)
	}
}

// Paper Example 5: normalizing messy medical billing codes.
func medicalProgram() Program {
	return Program{Cases: []Case{
		{
			Source: pattern.MustParse("'['<U>+'-'<D>+"),
			Plan:   Plan{Ops: []Op{Extract{1, 4}, ConstStr{"]"}}},
		},
		{
			Source: pattern.MustParse("<U>+'-'<D>+"),
			Plan:   Plan{Ops: []Op{ConstStr{"["}, Extract{1, 3}, ConstStr{"]"}}},
		},
		{
			Source: pattern.MustParse("<U>+<D>+"),
			Plan: Plan{Ops: []Op{
				ConstStr{"["}, Extract{1, 1}, ConstStr{"-"}, Extract{2, 2}, ConstStr{"]"},
			}},
		},
	}}
}

func TestApplyMedicalCodes(t *testing.T) {
	prog := medicalProgram()
	tests := map[string]string{
		"CPT-00350":  "[CPT-00350]",
		"[CPT-00340": "[CPT-00340]",
		"CPT115":     "[CPT-115]",
	}
	for in, want := range tests {
		got, err := prog.Apply(in)
		if err != nil {
			t.Errorf("Apply(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("Apply(%q) = %q, want %q", in, got, want)
		}
	}
	// "[CPT-11536]" matches no case (it is already the target pattern and
	// the program has no identity case): ErrNoMatch.
	if _, err := prog.Apply("[CPT-11536]"); !errors.Is(err, ErrNoMatch) {
		t.Errorf("Apply([CPT-11536]) err = %v, want ErrNoMatch", err)
	}
}

// Paper Example 6: normalizing employee names.
func TestApplyNames(t *testing.T) {
	prog := Program{Cases: []Case{
		{ // Dr. Eran Yahav -> Yahav, E.
			Source: pattern.MustParse("<U><L>+'.'' '<U><L>+' '<U><L>+"),
			Plan: Plan{Ops: []Op{
				Extract{8, 9}, ConstStr{","}, ConstStr{" "}, Extract{5, 5}, ConstStr{"."},
			}},
		},
		{ // Bill Gates, Sr. -> Gates, B.
			Source: pattern.MustParse("<U><L>+' '<U><L>+','' '<U><L>+'.'"),
			Plan: Plan{Ops: []Op{
				Extract{4, 5}, ConstStr{","}, ConstStr{" "}, Extract{1, 1}, ConstStr{"."},
			}},
		},
		{ // Oege de Moor -> Moor, O.
			Source: pattern.MustParse("<U><L>+' '<L>+' '<U><L>+"),
			Plan: Plan{Ops: []Op{
				Extract{6, 7}, ConstStr{","}, ConstStr{" "}, Extract{1, 1}, ConstStr{"."},
			}},
		},
	}}
	tests := map[string]string{
		"Dr. Eran Yahav":  "Yahav, E.",
		"Bill Gates, Sr.": "Gates, B.",
		"Oege de Moor":    "Moor, O.",
	}
	for in, want := range tests {
		got, err := prog.Apply(in)
		if err != nil {
			t.Errorf("Apply(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("Apply(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestApplyErrors(t *testing.T) {
	src := pattern.MustParse("<D>2")
	bad := Plan{Ops: []Op{Extract{1, 5}}}
	if _, err := bad.Apply(src, "12"); err == nil {
		t.Error("out-of-range Extract did not error")
	}
	if _, err := (Plan{}).Apply(src, "xx"); err == nil {
		t.Error("non-matching input did not error")
	}
	empty := Plan{}
	got, err := empty.Apply(src, "12")
	if err != nil || got != "" {
		t.Errorf("empty plan = %q, %v; want \"\"", got, err)
	}
}

func TestTransformFlagsUnmatched(t *testing.T) {
	prog := medicalProgram()
	data := []string{"CPT-00350", "N/A", "CPT115"}
	var out []string
	var flagged []int
	for i, s := range data {
		v, err := prog.Apply(s)
		if err != nil {
			if err != ErrNoMatch {
				t.Errorf("Apply(%q) = %v, want ErrNoMatch", s, err)
			}
			v = s
			flagged = append(flagged, i)
		}
		out = append(out, v)
	}
	if !reflect.DeepEqual(out, []string{"[CPT-00350]", "N/A", "[CPT-115]"}) {
		t.Errorf("Transform out = %v", out)
	}
	if !reflect.DeepEqual(flagged, []int{1}) {
		t.Errorf("flagged = %v, want [1]", flagged)
	}
}

func TestProgramString(t *testing.T) {
	prog := Program{Cases: []Case{{
		Source: pattern.MustParse("<U>+<D>+"),
		Plan:   Plan{Ops: []Op{Extract{1, 1}}},
	}}}
	want := `Switch((Match("<U>+<D>+"), Concat(Extract(1))))`
	if got := prog.String(); got != want {
		t.Errorf("Program.String() = %q, want %q", got, want)
	}
}

func TestPlanEqual(t *testing.T) {
	a := Plan{Ops: []Op{Extract{1, 2}, ConstStr{"x"}}}
	b := Plan{Ops: []Op{Extract{1, 2}, ConstStr{"x"}}}
	c := Plan{Ops: []Op{Extract{1, 2}}}
	d := Plan{Ops: []Op{Extract{1, 2}, ConstStr{"y"}}}
	if !a.Equal(b) {
		t.Error("identical plans not Equal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("different plans reported Equal")
	}
}
