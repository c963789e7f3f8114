// One apply engine: a live Transformation's Run and Apply run the engine a
// saved program is served by, so on every transformation of the benchmark
// suite, at every stage (labeled, repaired, refined, repaired with
// examples), they must equal both the paper's interpreter and the program
// LoadProgram builds from Export — on the automaton and on the compiled
// backtracking fallback alike.
package clx

import (
	"slices"
	"sync"
	"testing"

	"clx/internal/dataset"
)

// interpretedRun is the oracle: rows already in the target pass through,
// every other row goes through GuardedProgram.Apply, the paper's
// interpreter, and rows it rejects are copied through and flagged.
func interpretedRun(tr *Transformation) (out []string, flagged []int) {
	gp, _ := tr.guardedProgram()
	out = make([]string, len(tr.data))
	for i, s := range tr.data {
		out[i] = s
		if tr.res.Target.Matches(s) {
			continue
		}
		v, err := gp.Apply(s)
		if err != nil {
			flagged = append(flagged, i)
			continue
		}
		out[i] = v
	}
	return out, flagged
}

func checkOneEngine(t *testing.T, name string, tr *Transformation) {
	t.Helper()
	wantOut, wantFlagged := interpretedRun(tr)
	same := func(what string, out []string, flagged []int) {
		t.Helper()
		if !slices.Equal(out, wantOut) || !slices.Equal(flagged, wantFlagged) {
			t.Fatalf("%s: %s = %q flagged %v; interpreter %q flagged %v",
				name, what, out, flagged, wantOut, wantFlagged)
		}
	}
	out, flagged := tr.Run()
	same("Run", out, flagged)

	out, flagged = make([]string, len(tr.data)), nil
	for i, s := range tr.data {
		var ok bool
		if out[i], ok = tr.Apply(s); !ok {
			flagged = append(flagged, i)
		}
	}
	same("Apply per row", out, flagged)

	raw, err := tr.Export()
	if err != nil {
		t.Fatalf("%s: export: %v", name, err)
	}
	sp, err := LoadProgram(raw)
	if err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	out, flagged = sp.Transform(tr.data)
	same("loaded Transform", out, flagged)
	sp.DisableAutomaton()
	out, flagged = sp.Transform(tr.data)
	same("loaded Transform without automaton", out, flagged)
}

func TestOneEngineSuiteWide(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		checked := 0
		suiteTransformationsWith(t, opts, func(name string, tr *Transformation) {
			checkOneEngine(t, name, tr)
			checked++
		})
		if checked < 200 {
			t.Fatalf("workers=%d: checked %d suite transformations, want the whole suite (>= 200)",
				workers, checked)
		}
		t.Logf("workers=%d: %d suite transformations", workers, checked)
	}
	checkOneEngine(t, "titles", titlesTransformation(t))
	tr := conditionalTransformation(t)
	checkOneEngine(t, "conditional", tr)
	// Its engine is built; a second repair with examples must replace it.
	if err := tr.RepairWithExamples(map[string]string{
		"picture 001": "P-001", "picture 002": "P-002",
		"invoice 001": "D-001", "invoice 002": "D-002",
	}); err != nil {
		t.Fatal(err)
	}
	checkOneEngine(t, "conditional/re-repaired", tr)
	if out, ok := tr.Apply("picture 009"); !ok || out != "P-009" {
		t.Fatalf("Apply after re-repair = %q, %v; want P-009", out, ok)
	}
}

// Run and Apply only read the transformation, so they may be called from
// several goroutines at once, including the first calls, which build the
// engine.
func TestEngineConcurrentFirstUse(t *testing.T) {
	rows, _ := dataset.Phones(300, 6, 5)
	tr, err := NewSession(append(rows, "N/A")).Label(MustParsePattern("<D>3'-'<D>3'-'<D>4"))
	if err != nil {
		t.Fatal(err)
	}
	wantOut, wantFlagged := interpretedRun(tr)
	for round := 0; round < 3; round++ {
		if err := tr.Repair(0, 0); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if out, flagged := tr.Run(); !slices.Equal(out, wantOut) || !slices.Equal(flagged, wantFlagged) {
					t.Errorf("Run = %q %v, want %q %v", out, flagged, wantOut, wantFlagged)
				}
				for i, s := range tr.data {
					if out, _ := tr.Apply(s); out != wantOut[i] {
						t.Errorf("Apply(%q) = %q, want %q", s, out, wantOut[i])
					}
				}
			}()
		}
		wg.Wait()
	}
}
