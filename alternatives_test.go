package clx

import (
	"strings"
	"testing"

	"clx/internal/cluster"
	"clx/internal/pattern"
)

// checkAlternativeSources is the op→source oracle: every Replace op lists
// (through its SourceIndex) exactly the ranked plans of a source with the
// op's own pattern, and ops whose pattern no source has list none. The
// source is found from the synthesis result by pattern key, independently
// of how Replaces assembles the program. It returns how many ops listed
// alternatives.
func checkAlternativeSources(t *testing.T, name string, tr *Transformation) int {
	t.Helper()
	listed := 0
	for k, op := range tr.Replaces() {
		var owners []int
		for i, s := range tr.res.Sources {
			if s.Source.Key() == op.Source.Key() {
				owners = append(owners, i)
			}
		}
		alts := tr.Alternatives(op.SourceIndex)
		if len(owners) == 0 {
			if op.SourceIndex != -1 || len(alts) != 0 {
				t.Fatalf("%s: op %d (%s) serves no source but has SourceIndex %d and %d alternatives",
					name, k, op.Source, op.SourceIndex, len(alts))
			}
			continue
		}
		owner := -1
		for _, i := range owners {
			if i == op.SourceIndex {
				owner = i
			}
		}
		if owner < 0 {
			t.Fatalf("%s: op %d (%s) has SourceIndex %d, want one of %v", name, k, op.Source, op.SourceIndex, owners)
		}
		plans := tr.res.Sources[owner].Plans
		if len(alts) != len(plans) {
			t.Fatalf("%s: op %d lists %d alternatives, source %d has %d plans", name, k, len(alts), owner, len(plans))
		}
		for j, alt := range alts {
			if !alt.Source.Equal(op.Source) || !alt.Plan.Equal(plans[j].Plan) {
				t.Fatalf("%s: op %d alternative %d is %s over %s, want source %d's plan %s",
					name, k, j, alt.Plan, alt.Source, owner, plans[j].Plan)
			}
		}
		listed++
	}
	return listed
}

// exampleRepair repairs the first source whose first leaf cluster holds
// at least two rows with the desired outputs of up to four of those rows.
// It reports whether a repair was installed.
func exampleRepair(tr *Transformation, inputs, outputs []string) bool {
	for _, src := range tr.res.Sources {
		rows := src.Node.Leaves[0].Rows
		if len(rows) > 4 {
			rows = rows[:4]
		}
		examples := make(map[string]string)
		for _, ri := range rows {
			examples[inputs[ri]] = outputs[ri]
		}
		if len(examples) >= 2 && tr.RepairWithExamples(examples) == nil {
			return true
		}
	}
	return false
}

func TestAlternativesServeTheirOpsSource(t *testing.T) {
	listed, repaired := 0, 0
	suiteTransformations(t, func(name string, tr *Transformation) {
		listed += checkAlternativeSources(t, name, tr)
		if strings.HasSuffix(name, "/examples") {
			repaired++
		}
	})
	if listed < 200 || repaired < 20 {
		t.Errorf("%d ops listed alternatives over %d example repairs; want the whole suite", listed, repaired)
	}

	// A source repaired with examples serves several guarded ops, so op
	// and source indices part ways: the "picture" and "invoice" ops must
	// both list the space-separated source's plans, and the sources after
	// it their own.
	tr := pictureTransformation(t)
	if len(tr.Replaces()) != len(tr.Sources())+1 {
		t.Fatalf("picture column: %d ops over %d sources, want one source split in two",
			len(tr.Replaces()), len(tr.Sources()))
	}
	if checkAlternativeSources(t, "picture", tr) != len(tr.Replaces()) {
		t.Fatal("picture column: an op lists no alternatives")
	}
}

// pictureTransformation labels a keyword column whose space-separated
// source comes first and needs a content guard, with two more sources
// after it.
func pictureTransformation(t *testing.T) *Transformation {
	t.Helper()
	column := []string{
		"picture 001", "invoice 001", "picture 002", "invoice 002",
		"pic/003", "doc/004", "pic.005", "doc.006",
	}
	tr, err := NewSession(column).Label(MustParsePattern("<L>+'-'<D>+"))
	if err != nil {
		t.Fatal(err)
	}
	space := cluster.Generalize(pattern.FromString("picture 001"), cluster.QuantToPlus)
	if len(tr.Sources()) < 3 || !tr.Sources()[0].Equal(space) {
		t.Fatalf("picture column sources = %v, want %s first of three", tr.Sources(), space)
	}
	if err := tr.RepairWithExamples(map[string]string{
		"picture 001": "pic-001", "picture 002": "pic-002",
		"invoice 001": "doc-001", "invoice 002": "doc-002",
	}); err != nil {
		t.Fatal(err)
	}
	return tr
}
