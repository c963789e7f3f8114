// Differential tests for the repair-ranking and flagged-row fast paths:
// RepairCandidates must equal the straightforward per-plan Plan.Apply
// scorer it replaced, and Flagged must equal the flagged slice of Run, on
// every source of the benchmark suite, on a large phone column before
// and after an append, and after each kind of repair.
package clx

import (
	"reflect"
	"sort"
	"testing"

	"clx/internal/benchsuite"
	"clx/internal/dataset"
	"clx/internal/rematch"
	"clx/internal/replace"
	"clx/internal/simuser"
	"clx/internal/unifi"
)

// referenceRepairCandidates is the reference scorer: every plan applied
// to every not-yet-clean row of the source through Plan.Apply, which
// re-matches the uncompiled source pattern and allocates each output.
func referenceRepairCandidates(t *Transformation, i int) []RepairCandidate {
	if i < 0 || i >= len(t.res.Sources) {
		return nil
	}
	src := t.res.Sources[i]
	target := rematch.CompileCached(t.res.Target.Tokens())
	var rows []string
	if src.Node != nil {
		for _, c := range src.Node.Leaves {
			for _, ri := range c.Rows {
				if v := t.data[ri]; !target.Matches(v) {
					rows = append(rows, v)
				}
			}
		}
	}
	cur := planOps(src.Plans[src.Chosen].Plan, src.Source)
	out := make([]RepairCandidate, 0, len(src.Plans))
	for j, r := range src.Plans {
		c := RepairCandidate{
			Source:       i,
			Alt:          j,
			Op:           replace.ExplainCase(unifi.Case{Source: src.Source, Plan: r.Plan}),
			DL:           r.DL,
			EditDistance: editDistance(cur, planOps(r.Plan, src.Source)),
			Selected:     j == src.Chosen,
		}
		for _, v := range rows {
			got, err := r.Plan.Apply(src.Source, v)
			if err != nil || !target.Matches(got) {
				c.Residual++
			}
		}
		c.Score = float64(c.Residual)*1000 + float64(c.EditDistance) + c.DL/1e4
		out = append(out, c)
	}
	sort.SliceStable(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.Residual != y.Residual {
			return x.Residual < y.Residual
		}
		if x.EditDistance != y.EditDistance {
			return x.EditDistance < y.EditDistance
		}
		if x.DL != y.DL {
			return x.DL < y.DL
		}
		return x.Alt < y.Alt
	})
	return out
}

// checkCandidates compares RepairCandidates with the reference on every
// source (and one past the end) and returns how many sources it checked.
func checkCandidates(t *testing.T, name string, tr *Transformation) int {
	t.Helper()
	n := len(tr.Sources())
	for i := -1; i <= n; i++ {
		got, want := tr.RepairCandidates(i), referenceRepairCandidates(tr, i)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s source %d: RepairCandidates differs from the reference\n got %+v\nwant %+v",
				name, i, got, want)
		}
		if tr.PlanCount(i) != len(want) {
			t.Fatalf("%s source %d: PlanCount = %d, want %d", name, i, tr.PlanCount(i), len(want))
		}
	}
	return n
}

// checkFlagged compares Flagged with Run's flagged slice.
func checkFlagged(t *testing.T, name string, tr *Transformation) {
	t.Helper()
	_, want := tr.Run()
	if got := tr.Flagged(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Flagged = %v, Run flagged %v", name, got, want)
	}
}

// suiteTransformations labels every benchmark-suite task with each target
// the simulated user selects and hands each transformation to check,
// then repairs every source to its last-ranked plan and checks again,
// then refines the first refinable source and checks once more. Last, a
// fresh labeling has one source repaired with examples taken from the
// task's desired outputs and, when that repair takes, is checked too.
func suiteTransformations(t *testing.T, check func(name string, tr *Transformation)) {
	tasks := benchsuite.Tasks()
	if len(tasks) < 47 {
		t.Fatalf("benchmark suite has %d tasks, want >= 47", len(tasks))
	}
	for _, task := range tasks {
		for _, target := range simuser.SelectTargets(task.Inputs, task.Outputs) {
			tr, err := NewSession(task.Inputs).Label(target)
			if err != nil {
				continue
			}
			name := task.Name + "/" + target.String()
			check(name, tr)
			for i := range tr.Sources() {
				if err := tr.Repair(i, tr.PlanCount(i)-1); err != nil {
					t.Fatal(err)
				}
			}
			check(name+"/repaired", tr)
			for i := range tr.Sources() {
				if tr.Refine(i) == nil {
					check(name+"/refined", tr)
					break
				}
			}
			if tr, err = NewSession(task.Inputs).Label(target); err != nil {
				t.Fatal(err)
			}
			if exampleRepair(tr, task.Inputs, task.Outputs) {
				check(name+"/examples", tr)
			}
		}
	}
}

func TestRepairCandidatesMatchReference(t *testing.T) {
	sources := 0
	suiteTransformations(t, func(name string, tr *Transformation) {
		sources += checkCandidates(t, name, tr)
	})
	if sources < 200 {
		t.Errorf("checked %d suite sources, want the whole suite (>= 200)", sources)
	}

	// The large interactive session: a six-format phone column, the
	// stale transformation after an append, and the re-labeled one.
	rows, _ := dataset.Phones(3000, 6, 11)
	more, _ := dataset.Phones(300, 6, 12)
	sess := NewSession(rows)
	target := MustParsePattern("<D>3'-'<D>3'-'<D>4")
	tr, err := sess.Label(target)
	if err != nil {
		t.Fatal(err)
	}
	if checkCandidates(t, "phones", tr) < 4 {
		t.Fatalf("phone column solved with %d sources, want several", len(tr.Sources()))
	}
	sess.AppendAndReprofile(more)
	checkCandidates(t, "phones/stale", tr)
	tr, err = sess.Label(target)
	if err != nil {
		t.Fatal(err)
	}
	checkCandidates(t, "phones/appended", tr)
	for i := range tr.Sources() {
		if err := tr.Repair(i, tr.PlanCount(i)/2); err != nil {
			t.Fatal(err)
		}
	}
	checkCandidates(t, "phones/repaired", tr)

	// A generic source can cover rows already in the target, which must
	// not count as residual: "Dr. Smith" sits under <U><L>'.'' '<U><L>4
	// next to the rows that source rewrites.
	tr = titlesTransformation(t)
	checkCandidates(t, "titles", tr)

	// Guards do not change the ranked plans of the unconditional sources.
	tr = conditionalTransformation(t)
	checkCandidates(t, "conditional", tr)
}

// titlesTransformation labels a column whose only source also covers
// clean rows.
func titlesTransformation(t *testing.T) *Transformation {
	t.Helper()
	tr, err := NewSession([]string{"Dr. Smith", "Mr. Jones", "Ms. Brown", "Dr. Who"}).
		Label(MustParsePattern("'Dr. '<U><L>+"))
	if err != nil {
		t.Fatal(err)
	}
	clean := make(map[int]bool)
	for _, ri := range tr.Clean() {
		clean[ri] = true
	}
	for _, src := range tr.res.Sources {
		for _, c := range src.Node.Leaves {
			for _, ri := range c.Rows {
				if clean[ri] {
					return tr
				}
			}
		}
	}
	t.Fatalf("no source of %v covers a clean row", tr.Sources())
	return nil
}

func TestFlaggedMatchesRun(t *testing.T) {
	suiteTransformations(t, func(name string, tr *Transformation) {
		checkFlagged(t, name, tr)
	})
	rows, _ := dataset.Phones(3000, 7, 13)
	rows = append(rows, "", "N/A", "ext. 12")
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		sess := NewSession(rows, opts)
		tr, err := sess.Label(MustParsePattern("<D>3'-'<D>3'-'<D>4"))
		if err != nil {
			t.Fatal(err)
		}
		checkFlagged(t, "phones", tr)
		if len(tr.Flagged()) == 0 {
			t.Fatal("phone column with junk rows flagged nothing")
		}
		more, _ := dataset.Phones(200, 7, 14)
		sess.AppendAndReprofile(more)
		checkFlagged(t, "phones/stale", tr)
	}
	checkFlagged(t, "titles", titlesTransformation(t))
	checkFlagged(t, "conditional", conditionalTransformation(t))
}

// conditionalTransformation is the §7.4 keyword column repaired with
// examples, plus a keyword outside the example groups that the guards
// leave flagged.
func conditionalTransformation(t *testing.T) *Transformation {
	t.Helper()
	column := []string{
		"picture 001", "invoice 001", "picture 002", "invoice 002",
		"receipt 003", "PIC-777", "",
	}
	tr, err := NewSession(column).Label(MustParsePattern("<U>+'-'<D>+"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.RepairWithExamples(map[string]string{
		"picture 001": "PIC-001", "picture 002": "PIC-002",
		"invoice 001": "DOC-001", "invoice 002": "DOC-002",
	}); err != nil {
		t.Fatal(err)
	}
	if _, flagged := tr.Run(); len(flagged) == 0 {
		t.Fatal("unknown keyword not flagged by the guarded program")
	}
	return tr
}
