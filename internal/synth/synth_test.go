package synth

import (
	"fmt"
	"testing"

	"clx/internal/align"
	"clx/internal/benchsuite"
	"clx/internal/cluster"
	"clx/internal/mdl"
	"clx/internal/pattern"
	"clx/internal/token"
	"clx/internal/unifi"
)

func profile(data ...string) *cluster.Hierarchy {
	return cluster.Profile(data, cluster.DefaultOptions())
}

// Paper Example 7: validate via token-frequency count.
func TestValidateExample7(t *testing.T) {
	target := pattern.MustParse("'['<U>+'-'<D>+']'")
	ok := pattern.MustParse("'['<U>3'-'<D>5")
	rejected := pattern.MustParse("'['<U>3'-'")
	if !Validate(ok, target, false) {
		t.Errorf("Validate(%s) = false, want true", ok)
	}
	if Validate(rejected, target, false) {
		t.Errorf("Validate(%s) = true, want false", rejected)
	}
}

func TestValidateTooGeneral(t *testing.T) {
	// §6.1 reason 3: "<AN>+','<AN>+" is not a candidate for
	// "<U><L>+':'<D>+" because it lacks <U>, <L> and <D> counts.
	src := pattern.MustParse("<AN>+','<AN>+")
	target := pattern.MustParse("<U><L>+':'<D>+")
	if Validate(src, target, false) {
		t.Error("over-general pattern should be rejected")
	}
}

func TestValidateHierarchical(t *testing.T) {
	src := pattern.MustParse("<U>2<L>3")
	target := pattern.MustParse("<A>4")
	if Validate(src, target, false) {
		t.Error("exact counting should reject <A> target vs <U>/<L> source")
	}
	if !Validate(src, target, true) {
		t.Error("hierarchical counting should accept")
	}
}

// End-to-end phone normalization (paper §2, Figures 1–4).
func TestSynthesizePhones(t *testing.T) {
	data := []string{
		"(734) 645-8397",
		"(734)586-7252",
		"734-422-8073",
		"734.236.3466",
		"(313) 263-1192",
		"248 555 1234",
	}
	target := pattern.MustParse("<D>3'-'<D>3'-'<D>4")
	res := Synthesize(profile(data...), target, DefaultOptions())
	if len(res.CleanRows) != 1 || res.CleanRows[0] != 2 {
		t.Errorf("CleanRows = %v, want [2]", res.CleanRows)
	}
	if len(res.UnmatchedRows) != 0 {
		t.Errorf("UnmatchedRows = %v, want none", res.UnmatchedRows)
	}
	out, flagged := res.Transform()
	want := []string{
		"734-645-8397", "734-586-7252", "734-422-8073",
		"734-236-3466", "313-263-1192", "248-555-1234",
	}
	if len(flagged) != 0 {
		t.Errorf("flagged = %v, want none", flagged)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %q, want %q", i, out[i], want[i])
		}
	}
}

// Paper Example 5: medical billing codes with the target labeled at
// hierarchy level 1 ("[CPT-XXXX]" with '+' quantifiers).
func TestSynthesizeMedicalCodes(t *testing.T) {
	data := []string{"CPT-00350", "[CPT-00340", "[CPT-11536]", "CPT115"}
	target := pattern.MustParse("'['<U>+'-'<D>+']'")
	res := Synthesize(profile(data...), target, DefaultOptions())
	out, flagged := res.Transform()
	want := []string{"[CPT-00350]", "[CPT-00340]", "[CPT-11536]", "[CPT-115]"}
	if len(flagged) != 0 {
		t.Errorf("flagged = %v, want none", flagged)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %q, want %q", i, out[i], want[i])
		}
	}
}

func TestUnmatchedFlagged(t *testing.T) {
	data := []string{"734-422-8073", "(734) 645-8397", "N/A"}
	target := pattern.MustParse("<D>3'-'<D>3'-'<D>4")
	res := Synthesize(profile(data...), target, DefaultOptions())
	if len(res.UnmatchedRows) != 1 || res.UnmatchedRows[0] != 2 {
		t.Errorf("UnmatchedRows = %v, want [2]", res.UnmatchedRows)
	}
	out, flagged := res.Transform()
	if out[2] != "N/A" {
		t.Errorf("unmatched row mutated: %q", out[2])
	}
	if len(flagged) != 1 || flagged[0] != 2 {
		t.Errorf("flagged = %v, want [2]", flagged)
	}
}

// Appendix B example: [Extract(3),ConstStr('/'),Extract(1)] is equivalent to
// [Extract(3),Extract(2),Extract(1)] when source token 2 is the literal '/'.
func TestDedupEquivalentPlans(t *testing.T) {
	src := pattern.MustParse("<D>2'/'<D>2")
	e1 := unifi.Plan{Ops: []unifi.Op{
		unifi.Extract{I: 3, J: 3}, unifi.ConstStr{S: "/"}, unifi.Extract{I: 1, J: 1},
	}}
	e2 := unifi.Plan{Ops: []unifi.Op{
		unifi.Extract{I: 3, J: 3}, unifi.Extract{I: 2, J: 2}, unifi.Extract{I: 1, J: 1},
	}}
	e3 := unifi.Plan{Ops: []unifi.Op{unifi.Extract{I: 1, J: 3}}}
	in := []mdl.Ranked{{Plan: e3, DL: 1}, {Plan: e1, DL: 2}, {Plan: e2, DL: 3}}
	out := Dedup(in, src)
	if len(out) != 2 {
		t.Fatalf("Dedup kept %d plans, want 2: %v", len(out), out)
	}
	if !out[0].Plan.Equal(e3) || !out[1].Plan.Equal(e1) {
		t.Errorf("Dedup kept %s, %s; want E3, E1", out[0].Plan, out[1].Plan)
	}
}

// Multi-token extracts split before comparison: Extract(1,3) is equivalent
// to [Extract(1),ConstStr('/'),Extract(3)].
func TestDedupSplitsExtracts(t *testing.T) {
	src := pattern.MustParse("<D>2'/'<D>2")
	a := unifi.Plan{Ops: []unifi.Op{unifi.Extract{I: 1, J: 3}}}
	b := unifi.Plan{Ops: []unifi.Op{
		unifi.Extract{I: 1, J: 1}, unifi.ConstStr{S: "/"}, unifi.Extract{I: 3, J: 3},
	}}
	out := Dedup([]mdl.Ranked{{Plan: a}, {Plan: b}}, src)
	if len(out) != 1 {
		t.Errorf("Dedup kept %d plans, want 1", len(out))
	}
}

func TestDedupKeepsDistinct(t *testing.T) {
	src := pattern.MustParse("<D>2'/'<D>2")
	a := unifi.Plan{Ops: []unifi.Op{unifi.Extract{I: 1, J: 1}}}
	b := unifi.Plan{Ops: []unifi.Op{unifi.Extract{I: 3, J: 3}}}
	out := Dedup([]mdl.Ranked{{Plan: a}, {Plan: b}}, src)
	if len(out) != 2 {
		t.Errorf("Dedup kept %d plans, want 2 (semantically different extracts)", len(out))
	}
}

// §6.4: date-field ambiguity is repairable — the correct plan is among the
// ranked alternatives.
func TestRepairDateAmbiguity(t *testing.T) {
	data := []string{"31/12/2019", "28/02/2020", "12-31-2019"}
	// Target: MM-DD-YYYY style <D>2'-'<D>2'-'<D>4.
	target := pattern.MustParse("<D>2'-'<D>2'-'<D>4")
	res := Synthesize(profile(data...), target, DefaultOptions())
	if len(res.Sources) != 1 {
		t.Fatalf("sources = %d, want 1", len(res.Sources))
	}
	s := res.Sources[0]
	// The correct plan swaps day and month: Extract(3),'-',Extract(1),'-',Extract(5).
	wantPlan := unifi.Plan{Ops: []unifi.Op{
		unifi.Extract{I: 3, J: 3}, unifi.ConstStr{S: "-"},
		unifi.Extract{I: 1, J: 1}, unifi.ConstStr{S: "-"},
		unifi.Extract{I: 5, J: 5},
	}}
	found := -1
	for i, r := range s.Plans {
		if r.Plan.Equal(wantPlan) {
			found = i
		}
	}
	if found < 0 {
		t.Fatalf("correct swap plan not among %d alternatives", len(s.Plans))
	}
	if err := res.Repair(0, found); err != nil {
		t.Fatal(err)
	}
	out, _ := res.Transform()
	if out[0] != "12-31-2019" {
		t.Errorf("after repair, out[0] = %q, want 12-31-2019", out[0])
	}
}

func TestRepairErrors(t *testing.T) {
	data := []string{"12/34", "56-78"}
	target := pattern.MustParse("<D>2'-'<D>2")
	res := Synthesize(profile(data...), target, DefaultOptions())
	if err := res.Repair(99, 0); err == nil {
		t.Error("Repair with bad source index should error")
	}
	if len(res.Sources) > 0 {
		if err := res.Repair(0, 999); err == nil {
			t.Error("Repair with bad plan index should error")
		}
	}
}

// The hierarchy lets one source candidate cover several leaf patterns: the
// two parenthesized phone formats share the level-1 parent.
func TestHierarchySimplifiesProgram(t *testing.T) {
	data := []string{
		"(734) 645-8397", "(313) 263-1192", // '('<D>3')'' '<D>3'-'<D>4
		"(734)586-7252", "(313)555-0101", // '('<D>3')'<D>3'-'<D>4
		"734-422-8073",
	}
	target := pattern.MustParse("<D>3'-'<D>3'-'<D>4")
	res := Synthesize(profile(data...), target, DefaultOptions())
	// Both parenthesized formats have distinct fixed patterns; the level-1
	// parents differ too ('(' <D>+ ')' ' ' ... vs without space), so we
	// expect one source per format — but each format's rows must all be
	// covered and transform correctly.
	out, flagged := res.Transform()
	if len(flagged) != 0 {
		t.Fatalf("flagged = %v", flagged)
	}
	for i, want := range []string{
		"734-645-8397", "313-263-1192", "734-586-7252", "313-555-0101", "734-422-8073",
	} {
		if out[i] != want {
			t.Errorf("out[%d] = %q, want %q", i, out[i], want)
		}
	}
}

func TestProgramAssembly(t *testing.T) {
	data := []string{"12/34", "99-00"}
	target := pattern.MustParse("<D>2'-'<D>2")
	res := Synthesize(profile(data...), target, DefaultOptions())
	prog := res.Program()
	if len(prog.Cases) != len(res.Sources) {
		t.Errorf("program cases = %d, want %d", len(prog.Cases), len(res.Sources))
	}
	got, err := prog.Apply("12/34")
	if err != nil || got != "12-34" {
		t.Errorf("Apply = %q, %v; want 12-34", got, err)
	}
}

// Ablation hooks: disabling validate still synthesizes correct programs
// (alignment completeness still filters), just more slowly.
func TestDisableValidate(t *testing.T) {
	data := []string{"734.236.3466", "734-422-8073"}
	target := pattern.MustParse("<D>3'-'<D>3'-'<D>4")
	opts := DefaultOptions()
	opts.DisableValidate = true
	res := Synthesize(profile(data...), target, opts)
	out, flagged := res.Transform()
	if len(flagged) != 0 || out[0] != "734-236-3466" {
		t.Errorf("out = %v flagged = %v", out, flagged)
	}
}

// Disabling sequential-extract combining still yields correct output here
// (plans just use more operators).
func TestDisableCombine(t *testing.T) {
	data := []string{"12/34/5678", "12-34-5678"}
	target := pattern.MustParse("<D>2'-'<D>2'-'<D>4")
	opts := DefaultOptions()
	opts.DisableCombine = true
	res := Synthesize(profile(data...), target, opts)
	out, flagged := res.Transform()
	if len(flagged) != 0 || out[0] != "12-34-5678" {
		t.Errorf("out = %v flagged = %v", out, flagged)
	}
	if len(res.Sources) != 1 {
		t.Fatalf("sources = %d", len(res.Sources))
	}
	for _, op := range res.Sources[0].Plan().Ops {
		if e, ok := op.(unifi.Extract); ok && e.J > e.I {
			t.Errorf("combined extract %v present despite DisableCombine", e)
		}
	}
}

// Property (Theorem A.1 soundness at program level): every ranked plan of
// every source produces output matching the target on that source's rows.
func TestAllRankedPlansSound(t *testing.T) {
	data := []string{
		"(734) 645-8397", "(734)586-7252", "734.236.3466",
		"248 555 1234", "734-422-8073",
	}
	target := pattern.MustParse("<D>3'-'<D>3'-'<D>4")
	res := Synthesize(profile(data...), target, DefaultOptions())
	for _, s := range res.Sources {
		for _, leaf := range s.Node.Leaves {
			for _, ri := range leaf.Rows {
				for pi, r := range s.Plans {
					out, err := r.Plan.Apply(s.Source, data[ri])
					if err != nil {
						t.Errorf("source %s plan %d on %q: %v", s.Source, pi, data[ri], err)
						continue
					}
					if !target.Matches(out) {
						t.Errorf("source %s plan %d on %q produced %q (not target)",
							s.Source, pi, data[ri], out)
					}
				}
			}
		}
	}
}

// referenceCanonicalKey is the original string rendering of a plan's
// canonical key.
func referenceCanonicalKey(p unifi.Plan, src pattern.Pattern) string {
	key := ""
	for _, op := range p.Ops {
		switch op := op.(type) {
		case unifi.ConstStr:
			key += fmt.Sprintf("C%q;", op.S)
		case unifi.Extract:
			for j := op.I; j <= op.J; j++ {
				t := src.At(j - 1)
				if t.IsLiteral() && t.Quant != token.Plus {
					key += fmt.Sprintf("C%q;", t.Expand())
				} else {
					key += fmt.Sprintf("X%d;", j)
				}
			}
		}
	}
	return key
}

// The byte-appended canonical key equals the fmt rendering for every plan
// of every suite source, and for constants that need escaping.
func TestCanonicalKeyMatchesReference(t *testing.T) {
	check := func(p unifi.Plan, src pattern.Pattern) {
		t.Helper()
		got := string(appendCanonicalKey(nil, p, src, make([]string, src.Len())))
		if want := referenceCanonicalKey(p, src); got != want {
			t.Fatalf("plan %s of %s: key %q, want %q", p, src, got, want)
		}
	}
	src := pattern.Of(token.Lit(`"q'\`), token.Base(token.Digit, 2), token.Token{Class: token.Literal, Lit: "-", Quant: 3},
		token.Lit("é\t\x00"), token.Token{Class: token.Literal, Lit: "ab", Quant: token.Plus})
	check(unifi.Plan{Ops: []unifi.Op{
		unifi.Extract{I: 1, J: 5}, unifi.ConstStr{S: "\"\\\n漢\xff"}, unifi.Extract{I: 3, J: 3}, unifi.ConstStr{},
	}}, src)
	plans := 0
	for _, task := range benchsuite.Tasks() {
		target := cluster.Generalize(pattern.FromString(task.Outputs[0]), cluster.QuantToPlus)
		for _, s := range Synthesize(profile(task.Inputs...), target, DefaultOptions()).Sources {
			for _, r := range mdl.TopK(align.Align(target, s.Source), s.Source, 96) {
				check(r.Plan, s.Source)
				plans++
			}
		}
	}
	if plans < 1000 {
		t.Errorf("checked %d suite plans, want >= 1000", plans)
	}
}
