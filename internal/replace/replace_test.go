package replace

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"clx/internal/benchsuite"
	"clx/internal/cluster"
	"clx/internal/pattern"
	"clx/internal/synth"
	"clx/internal/unifi"
)

// Paper Figure 4, operation 2: the dash-format phone source.
func TestExplainFigure4(t *testing.T) {
	c := unifi.Case{
		Source: pattern.MustParse("<D>3'-'<D>3'-'<D>4"),
		Plan: unifi.Plan{Ops: []unifi.Op{
			unifi.ConstStr{S: "("}, unifi.Extract{I: 1, J: 1},
			unifi.ConstStr{S: ")"}, unifi.ConstStr{S: " "},
			unifi.Extract{I: 3, J: 3}, unifi.ConstStr{S: "-"},
			unifi.Extract{I: 5, J: 5},
		}},
	}
	op := ExplainCase(c)
	wantRegex := `/^({digit}{3})\-({digit}{3})\-({digit}{4})$/`
	if got := op.NLRegex(); got != wantRegex {
		t.Errorf("NLRegex = %q, want %q", got, wantRegex)
	}
	if op.Replacement != "($1) $2-$3" {
		t.Errorf("Replacement = %q, want ($1) $2-$3", op.Replacement)
	}
	got, ok := op.Apply("734-422-8073")
	if !ok || got != "(734) 422-8073" {
		t.Errorf("Apply = %q, %v", got, ok)
	}
	if _, ok := op.Apply("(734) 422-8073"); ok {
		t.Error("Apply matched a non-matching string")
	}
	if !strings.HasPrefix(op.String(), "Replace /^") {
		t.Errorf("String() = %q", op.String())
	}
}

// Consecutive extracts merge into a single group (§5 "Program Explanation").
func TestExplainMergesConsecutiveExtracts(t *testing.T) {
	c := unifi.Case{
		Source: pattern.MustParse("'['<U>+'-'<D>+"),
		Plan: unifi.Plan{Ops: []unifi.Op{
			unifi.Extract{I: 1, J: 2}, unifi.Extract{I: 3, J: 4}, unifi.ConstStr{S: "]"},
		}},
	}
	op := ExplainCase(c)
	if len(op.Groups) != 1 {
		t.Fatalf("groups = %v, want one merged group", op.Groups)
	}
	if op.Replacement != "$1]" {
		t.Errorf("Replacement = %q, want $1]", op.Replacement)
	}
	got, ok := op.Apply("[CPT-00340")
	if !ok || got != "[CPT-00340]" {
		t.Errorf("Apply = %q, %v", got, ok)
	}
}

// Groups are numbered in source order even when the plan reorders fields
// (the date swap).
func TestExplainGroupNumbersInSourceOrder(t *testing.T) {
	c := unifi.Case{
		Source: pattern.MustParse("<D>2'/'<D>2'/'<D>4"),
		Plan: unifi.Plan{Ops: []unifi.Op{
			unifi.Extract{I: 3, J: 3}, unifi.ConstStr{S: "-"},
			unifi.Extract{I: 1, J: 1}, unifi.ConstStr{S: "-"},
			unifi.Extract{I: 5, J: 5},
		}},
	}
	op := ExplainCase(c)
	if op.Replacement != "$2-$1-$3" {
		t.Errorf("Replacement = %q, want $2-$1-$3", op.Replacement)
	}
	got, ok := op.Apply("31/12/2019")
	if !ok || got != "12-31-2019" {
		t.Errorf("Apply = %q, %v", got, ok)
	}
}

// A group reused twice in the plan keeps one capture group referenced twice.
func TestExplainReusedGroup(t *testing.T) {
	c := unifi.Case{
		Source: pattern.MustParse("<D>2"),
		Plan: unifi.Plan{Ops: []unifi.Op{
			unifi.Extract{I: 1, J: 1}, unifi.ConstStr{S: ":"}, unifi.Extract{I: 1, J: 1},
		}},
	}
	op := ExplainCase(c)
	if len(op.Groups) != 1 || op.Replacement != "$1:$1" {
		t.Errorf("groups = %v replacement = %q", op.Groups, op.Replacement)
	}
	got, ok := op.Apply("42")
	if !ok || got != "42:42" {
		t.Errorf("Apply = %q, %v", got, ok)
	}
}

func TestDollarEscaping(t *testing.T) {
	c := unifi.Case{
		Source: pattern.MustParse("<D>2"),
		Plan: unifi.Plan{Ops: []unifi.Op{
			unifi.ConstStr{S: "$"}, unifi.Extract{I: 1, J: 1},
		}},
	}
	op := ExplainCase(c)
	if op.Replacement != "$$$1" {
		t.Errorf("Replacement = %q, want $$$1", op.Replacement)
	}
	got, ok := op.Apply("42")
	if !ok || got != "$42" {
		t.Errorf("Apply = %q, %v", got, ok)
	}
}

// Replace program semantics are identical to the UniFi program they explain.
func TestExplainEquivalentToUniFi(t *testing.T) {
	data := []string{
		"(734) 645-8397", "(734)586-7252", "734.236.3466",
		"734-422-8073", "248 555 1234",
	}
	target := pattern.MustParse("<D>3'-'<D>3'-'<D>4")
	res := synth.Synthesize(cluster.Profile(data, cluster.DefaultOptions()), target, synth.DefaultOptions())
	uni := res.Program()
	rep := Explain(uni)
	if len(rep) != len(uni.Cases) {
		t.Fatalf("replace ops = %d, uni cases = %d", len(rep), len(uni.Cases))
	}
	for _, s := range data {
		wantOut, wantErr := uni.Apply(s)
		gotOut, ok := rep.Apply(s)
		if (wantErr == nil) != ok {
			t.Errorf("Apply(%q): uni err=%v, replace ok=%v", s, wantErr, ok)
			continue
		}
		if ok && gotOut != wantOut {
			t.Errorf("Apply(%q): replace %q != uni %q", s, gotOut, wantOut)
		}
	}
	if _, ok := rep.Apply("no match"); ok {
		t.Error("replace program matched garbage")
	}
}

func TestProgramString(t *testing.T) {
	c := unifi.Case{
		Source: pattern.MustParse("<D>3'-'<D>3'-'<D>4"),
		Plan: unifi.Plan{Ops: []unifi.Op{
			unifi.ConstStr{S: "("}, unifi.Extract{I: 1, J: 1}, unifi.ConstStr{S: ") "},
			unifi.Extract{I: 3, J: 3}, unifi.ConstStr{S: "-"}, unifi.Extract{I: 5, J: 5},
		}},
	}
	p := Explain(unifi.Program{Cases: []unifi.Case{c}})
	s := p.String()
	if !strings.HasPrefix(s, "1 Replace /^") || !strings.Contains(s, "with '($1) $2-$3'") {
		t.Errorf("Program.String() = %q", s)
	}
}

func TestRegexRendering(t *testing.T) {
	c := unifi.Case{
		Source: pattern.MustParse("'('<D>3')'' '<D>3'-'<D>4"),
		Plan: unifi.Plan{Ops: []unifi.Op{
			unifi.Extract{I: 2, J: 2}, unifi.ConstStr{S: "-"},
			unifi.Extract{I: 5, J: 5}, unifi.ConstStr{S: "-"},
			unifi.Extract{I: 7, J: 7},
		}},
	}
	op := ExplainCase(c)
	want := `^\(([0-9]{3})\) ([0-9]{3})\-([0-9]{4})$`
	if got := op.Regex(); got != want {
		t.Errorf("Regex = %q, want %q", got, want)
	}
}

// referenceExplainCase is the original map-and-fmt rendering of
// ExplainCase.
func referenceExplainCase(c unifi.Case) Op {
	type piece struct {
		isConst bool
		text    string
		rng     [2]int
	}
	var pieces []piece
	for _, op := range c.Plan.Ops {
		switch op := op.(type) {
		case unifi.ConstStr:
			pieces = append(pieces, piece{isConst: true, text: op.S})
		case unifi.Extract:
			if n := len(pieces); n > 0 && !pieces[n-1].isConst && pieces[n-1].rng[1]+1 == op.I {
				pieces[n-1].rng[1] = op.J
				continue
			}
			pieces = append(pieces, piece{rng: [2]int{op.I, op.J}})
		}
	}
	ranges := make(map[[2]int]int)
	var ordered [][2]int
	for _, pc := range pieces {
		if pc.isConst {
			continue
		}
		if _, ok := ranges[pc.rng]; !ok {
			ranges[pc.rng] = 0
			ordered = append(ordered, pc.rng)
		}
	}
	sortRanges(ordered)
	groups := make([][2]int, 0, len(ordered))
	if nonOverlapping(ordered) {
		for i, r := range ordered {
			ranges[r] = i + 1
			groups = append(groups, [2]int{r[0] - 1, r[1]})
		}
	} else {
		ordered = ordered[:0]
		for _, pc := range pieces {
			if pc.isConst {
				continue
			}
			if ranges[pc.rng] == 0 {
				ranges[pc.rng] = len(ordered) + 1
				ordered = append(ordered, pc.rng)
				groups = append(groups, [2]int{pc.rng[0] - 1, pc.rng[1]})
			}
		}
	}
	var repl strings.Builder
	for _, pc := range pieces {
		if pc.isConst {
			repl.WriteString(strings.ReplaceAll(pc.text, "$", "$$"))
			continue
		}
		fmt.Fprintf(&repl, "$%d", ranges[pc.rng])
	}
	return Op{Source: c.Source, Groups: groups, Replacement: repl.String(), Plan: c.Plan, SourceIndex: -1}
}

// ExplainCase renders exactly what the reference does for every ranked
// plan of every suite source, and for overlapping, reused, '$'-carrying
// and long plans.
func TestExplainCaseMatchesReference(t *testing.T) {
	check := func(c unifi.Case) {
		t.Helper()
		if got, want := ExplainCase(c), referenceExplainCase(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s over %s:\n got %+v\nwant %+v", c.Plan, c.Source, got, want)
		}
	}
	src := pattern.MustParse("<D>2'-'<D>2'-'<D>4")
	var long []unifi.Op
	for i := 0; i < 40; i++ {
		long = append(long, unifi.Extract{I: i%5 + 1, J: i%5 + 1}, unifi.ConstStr{S: "$x$"})
	}
	for _, ops := range [][]unifi.Op{
		nil,
		{unifi.ConstStr{S: "$$"}},
		{unifi.Extract{I: 1, J: 3}, unifi.Extract{I: 3, J: 5}, unifi.ConstStr{S: "$"}, unifi.Extract{I: 1, J: 3}},
		{unifi.Extract{I: 5, J: 5}, unifi.Extract{I: 1, J: 1}, unifi.Extract{I: 2, J: 4}, unifi.Extract{I: 5, J: 5}},
		long,
	} {
		check(unifi.Case{Source: src, Plan: unifi.Plan{Ops: ops}})
	}
	plans := 0
	opts := synth.DefaultOptions()
	opts.K = 96
	for _, task := range benchsuite.Tasks() {
		target := cluster.Generalize(pattern.FromString(task.Outputs[0]), cluster.QuantToPlus)
		h := cluster.Profile(task.Inputs, cluster.DefaultOptions())
		for _, s := range synth.Synthesize(h, target, opts).Sources {
			for _, r := range s.Plans {
				check(unifi.Case{Source: s.Source, Plan: r.Plan})
				plans++
			}
		}
	}
	if plans < 1000 {
		t.Errorf("checked %d suite plans, want >= 1000", plans)
	}
}
