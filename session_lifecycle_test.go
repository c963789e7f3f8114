package clx_test

import (
	"reflect"
	"testing"

	"clx"
)

// Regression: empty appends must be cheap no-ops — no index build, no
// re-profile, no counter movement — returning the current stats.
func TestEmptyAppendNoOpCounters(t *testing.T) {
	sess := clx.NewSession([]string{"415-555-0100", "415-555-0101", "(212) 555-0102"})
	want := sess.ProfileStats()
	gen := sess.Generation()

	before := profileIndexCounters()
	for _, rows := range [][]string{nil, {}} {
		if got := sess.AppendAndReprofile(rows); got != want {
			t.Errorf("AppendAndReprofile(%v) = %+v, want current stats %+v", rows, got, want)
		}
	}
	after := profileIndexCounters()

	if !reflect.DeepEqual(before, after) {
		t.Errorf("empty append moved profile counters: before %+v, after %+v", before, after)
	}
	if sess.Generation() != gen {
		t.Errorf("empty append bumped generation: %d -> %d", gen, sess.Generation())
	}
	if got := sess.ProfileStats(); got != want {
		t.Errorf("session stats changed: %+v -> %+v", want, got)
	}
}

// Regression: the session owns its column. Mutating the caller's input
// slice after NewSession, or the slice Data returns, must not reach
// session-internal state.
func TestSessionDataAliasing(t *testing.T) {
	input := []string{"a1", "b2", "c3"}
	sess := clx.NewSession(input)

	input[0] = "MUTATED"
	if got := sess.Data()[0]; got != "a1" {
		t.Errorf("caller mutation leaked into session: Data()[0] = %q", got)
	}

	d := sess.Data()
	d[1] = "MUTATED"
	if got := sess.Data()[1]; got != "b2" {
		t.Errorf("mutation of Data() result leaked into session: Data()[1] = %q", got)
	}

	sess.AppendAndReprofile([]string{"d4"})
	got := sess.Data()
	if len(got) != 4 || got[3] != "d4" {
		t.Errorf("Data() after append = %v, want 4 rows ending in d4", got)
	}
	if got[0] != "a1" || got[1] != "b2" {
		t.Errorf("Data() after append lost earlier protection: %v", got)
	}
}

// Regression: a transformation synthesized before an append must report
// itself stale instead of silently operating on the old snapshot.
func TestTransformationStaleness(t *testing.T) {
	sess := clx.NewSession([]string{"415-555-0100", "(212) 555-0102", "646.555.0103"})
	target := clx.MustParsePattern("<D>3'-'<D>3'-'<D>4")

	tr, err := sess.Label(target)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stale() {
		t.Error("fresh transformation reports stale")
	}
	if tr.Generation() != sess.Generation() {
		t.Errorf("generation mismatch on fresh label: tr %d, sess %d", tr.Generation(), sess.Generation())
	}

	sess.AppendAndReprofile(nil)
	if tr.Stale() {
		t.Error("empty append marked transformation stale")
	}

	sess.AppendAndReprofile([]string{"(917) 555-0104"})
	if !tr.Stale() {
		t.Error("transformation not stale after a column-changing append")
	}

	tr2, err := sess.Label(target)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Stale() {
		t.Error("re-labeled transformation reports stale")
	}
	if !tr.Stale() {
		t.Error("old transformation lost staleness after re-label")
	}
}

func TestRepairCandidatesRanking(t *testing.T) {
	data := []string{"31/12/2019", "28/02/2020", "12-31-2019"}
	sess := clx.NewSession(data)
	tr, err := sess.Label(clx.MustParsePattern("<D>2'-'<D>2'-'<D>4"))
	if err != nil {
		t.Fatal(err)
	}

	cands := tr.RepairCandidates(0)
	if len(cands) != len(tr.Alternatives(0)) {
		t.Fatalf("candidates = %d, alternatives = %d", len(cands), len(tr.Alternatives(0)))
	}
	if len(cands) < 2 {
		t.Fatalf("candidates = %d, want several", len(cands))
	}

	selected := 0
	for _, c := range cands {
		if c.Selected {
			selected++
			if c.EditDistance != 0 {
				t.Errorf("selected plan has edit distance %d, want 0", c.EditDistance)
			}
			if c.Residual != 0 {
				t.Errorf("selected plan leaves %d residual rows, want 0", c.Residual)
			}
		}
	}
	if selected != 1 {
		t.Errorf("selected candidates = %d, want exactly 1", selected)
	}

	// Best-first under the lexicographic objective order.
	for i := 1; i < len(cands); i++ {
		a, b := cands[i-1], cands[i]
		if a.Residual > b.Residual ||
			(a.Residual == b.Residual && a.EditDistance > b.EditDistance) ||
			(a.Residual == b.Residual && a.EditDistance == b.EditDistance && a.DL > b.DL) {
			t.Errorf("candidates out of order at %d: %+v before %+v", i, a, b)
		}
	}

	// A candidate's (Source, Alt) address must feed straight into Repair:
	// adopt the day/month swap and confirm it takes effect.
	found := -1
	for _, c := range cands {
		if out, ok := c.Op.Apply("31/12/2019"); ok && out == "12-31-2019" {
			found = c.Alt
			if err := tr.Repair(c.Source, c.Alt); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if found < 0 {
		t.Fatal("swap plan not among candidates")
	}
	out, _ := tr.Run()
	if out[0] != "12-31-2019" {
		t.Errorf("after candidate repair out[0] = %q", out[0])
	}

	if tr.RepairCandidates(-1) != nil || tr.RepairCandidates(len(tr.Sources())) != nil {
		t.Error("out-of-range source should return nil candidates")
	}
}
