package simuser

import (
	"testing"

	"clx/internal/benchsuite"
	"clx/internal/dataset"
	"clx/internal/unifi"
)

func TestSimulateCLXPhones(t *testing.T) {
	in, want := dataset.Phones(60, 4, 42)
	res := SimulateCLX(in, want, DefaultOptions())
	if !res.Perfect() {
		t.Fatalf("failed rows: %v", res.FailedRows)
	}
	if res.Selections != 1 {
		t.Errorf("selections = %d, want 1", res.Selections)
	}
	if res.Repairs != 0 {
		t.Errorf("repairs = %d, want 0 for phones", res.Repairs)
	}
	if res.Steps() != 1 {
		t.Errorf("steps = %d, want 1", res.Steps())
	}
	for i := range want {
		if res.Outputs[i] != want[i] {
			t.Errorf("out[%d] = %q, want %q", i, res.Outputs[i], want[i])
		}
	}
}

func TestSimulateCLXMedical(t *testing.T) {
	task, _ := benchsuite.ByName("bf-ex3-medical")
	res := SimulateCLX(task.Inputs, task.Outputs, DefaultOptions())
	if !res.Perfect() {
		t.Fatalf("failed rows: %v (outputs %v)", res.FailedRows, res.Outputs)
	}
	if res.Selections != 1 {
		t.Errorf("selections = %d, want 1", res.Selections)
	}
}

func TestSimulateCLXDateNeedsRepair(t *testing.T) {
	task, _ := benchsuite.ByName("ff-ex10-dates")
	res := SimulateCLX(task.Inputs, task.Outputs, DefaultOptions())
	if !res.Perfect() {
		t.Fatalf("failed rows: %v", res.FailedRows)
	}
	if res.Repairs == 0 {
		t.Error("date swap should require a repair (the §6.4 ambiguity)")
	}
}

func TestSimulateCLXConditionalFails(t *testing.T) {
	task, _ := benchsuite.ByName("ff-ex13-picture")
	res := SimulateCLX(task.Inputs, task.Outputs, DefaultOptions())
	if res.Perfect() {
		t.Error("UniFi cannot express the content conditional; task should fail")
	}
}

func TestSimulateCLXUnrepresentativeFails(t *testing.T) {
	for _, name := range []string{"pp-ex2-mcmillan", "prose-ex2-email"} {
		task, _ := benchsuite.ByName(name)
		res := SimulateCLX(task.Inputs, task.Outputs, DefaultOptions())
		if res.Perfect() {
			t.Errorf("%s: expected a representativeness failure", name)
		}
		// Only the unrepresentative rows fail, not the whole task.
		if len(res.FailedRows) == len(task.Inputs) {
			t.Errorf("%s: all rows failed; expected partial success", name)
		}
	}
}

func TestSelectTargets(t *testing.T) {
	// All outputs share a leaf pattern: one target at level 0.
	_, want := dataset.Phones(20, 3, 7)
	targets := SelectTargets(nil, want)
	if len(targets) != 1 || targets[0].String() != "<D>3'-'<D>3'-'<D>4" {
		t.Errorf("targets = %v", targets)
	}
	// Mixed-length codes generalize to one '+' target.
	targets = SelectTargets(nil, []string{"[CPT-00350]", "[CPT-115]"})
	if len(targets) != 1 || targets[0].String() != "'['<U>+'-'<D>+']'" {
		t.Errorf("targets = %v", targets)
	}
	// Structurally different outputs stay separate.
	targets = SelectTargets(nil, []string{"eran yahav", "mary ann lee"})
	if len(targets) != 2 {
		t.Errorf("targets = %v, want 2", targets)
	}
}

func TestSimulateFlashFillPhones(t *testing.T) {
	in, want := dataset.Phones(30, 3, 99)
	res := SimulateFlashFill(in, want)
	if !res.Perfect() {
		t.Fatalf("failed rows: %v", res.FailedRows)
	}
	if len(res.Examples) == 0 {
		t.Fatal("no examples provided")
	}
	// Interactions grow with heterogeneity: at least one example per messy
	// format.
	if len(res.Examples) < 2 {
		t.Errorf("examples = %d, want >= 2 for 3 formats", len(res.Examples))
	}
	// Scan lengths recorded for each interaction plus the final pass.
	if len(res.ScanLengths) != len(res.Examples)+1 {
		t.Errorf("scan lengths = %d, want %d", len(res.ScanLengths), len(res.Examples)+1)
	}
	if last := res.ScanLengths[len(res.ScanLengths)-1]; last != len(in) {
		t.Errorf("final scan = %d, want full pass %d", last, len(in))
	}
}

func TestSimulateFlashFillConditionalStalls(t *testing.T) {
	task, _ := benchsuite.ByName("ff-ex13-picture")
	res := SimulateFlashFill(task.Inputs, task.Outputs)
	// Our pattern-partitioned FlashFill cannot separate same-pattern
	// content conditionals; the session must terminate (no infinite loop)
	// and report failures.
	if res.Perfect() {
		t.Log("FlashFill solved the conditional task; paper's FlashFill also could")
	} else if len(res.FailedRows) == 0 {
		t.Error("imperfect result must report failed rows")
	}
}

func TestSimulateFlashFillAlreadyClean(t *testing.T) {
	in := []string{"a-1", "b-2"}
	res := SimulateFlashFill(in, in)
	if !res.Perfect() || len(res.Examples) != 0 {
		t.Errorf("clean column should need no examples: %+v", res)
	}
	if res.Steps() != 0 {
		t.Errorf("steps = %d, want 0", res.Steps())
	}
}

func TestSimulateCLXAlreadyClean(t *testing.T) {
	in := []string{"111-222-3333", "444-555-6666"}
	res := SimulateCLX(in, in, DefaultOptions())
	if !res.Perfect() {
		t.Fatalf("failed rows: %v", res.FailedRows)
	}
	if res.Steps() != 1 { // one selection, nothing to repair
		t.Errorf("steps = %d, want 1", res.Steps())
	}
}

// The headline §7.4 expressivity shape: CLX solves ~90% of the suite,
// failing exactly the designed conditional + representativeness tasks.
func TestExpressivityShape(t *testing.T) {
	perfectCLX := 0
	var failures []string
	for _, task := range benchsuite.Tasks() {
		res := SimulateCLX(task.Inputs, task.Outputs, DefaultOptions())
		if res.Perfect() {
			perfectCLX++
		} else {
			failures = append(failures, task.Name)
			if !task.NeedsConditional && !task.UnrepresentativeTarget {
				t.Logf("unexpected CLX failure on %s (%d rows failed)",
					task.Name, len(res.FailedRows))
			}
		}
	}
	t.Logf("CLX perfect on %d/47; failures: %v", perfectCLX, failures)
	if perfectCLX < 40 || perfectCLX > 44 {
		t.Errorf("CLX perfect on %d/47, want ~42 (40-44)", perfectCLX)
	}
}

// Determinism: the simulated sessions are pure functions of the task.
func TestSimulationDeterministic(t *testing.T) {
	for _, task := range benchsuite.Tasks()[:12] {
		a := SimulateCLX(task.Inputs, task.Outputs, DefaultOptions())
		b := SimulateCLX(task.Inputs, task.Outputs, DefaultOptions())
		if a.Steps() != b.Steps() || a.Selections != b.Selections ||
			a.Repairs != b.Repairs || len(a.FailedRows) != len(b.FailedRows) {
			t.Errorf("%s: non-deterministic CLX simulation", task.Name)
		}
		fa := SimulateFlashFill(task.Inputs, task.Outputs)
		fb := SimulateFlashFill(task.Inputs, task.Outputs)
		if fa.Steps() != fb.Steps() || len(fa.Examples) != len(fb.Examples) {
			t.Errorf("%s: non-deterministic FlashFill simulation", task.Name)
		}
		ra := SimulateRegexReplace(task.Inputs, task.Outputs)
		rb := SimulateRegexReplace(task.Inputs, task.Outputs)
		if ra.Steps() != rb.Steps() {
			t.Errorf("%s: non-deterministic RegexReplace simulation", task.Name)
		}
	}
}

// Effort stays bounded on every task: even the designed failures never
// degenerate into per-row patching for CLX.
func TestStepsBounded(t *testing.T) {
	for _, task := range benchsuite.Tasks() {
		res := SimulateCLX(task.Inputs, task.Outputs, DefaultOptions())
		bound := 12 + len(res.FailedRows) // selections+repairs small; punishment explicit
		if res.Steps() > bound {
			t.Errorf("%s: steps = %d exceeds bound %d", task.Name, res.Steps(), bound)
		}
	}
}

// TestApplierLiftsOnce: the applier lifts the session's program once, so
// transforming the column allocates less than the same routing with the
// program lifted per row, and returns the same outputs. Allocations are
// summed over every transformed row: a per-row count would be noisy under
// the race detector, whose sync.Pool drops items at random.
func TestApplierLiftsOnce(t *testing.T) {
	task, _ := benchsuite.ByName("bf-ex3-medical")
	res := SimulateCLX(task.Inputs, task.Outputs, DefaultOptions())
	apply := res.Applier()
	perRow := func(s string) string {
		for _, tgt := range res.Targets {
			if tgt.Matches(s) {
				return s
			}
		}
		out, err := unifi.Program{Cases: res.Cases}.Apply(s)
		if err != nil {
			return s
		}
		return out
	}
	var transformed []string
	for _, in := range task.Inputs {
		got, want := apply(in), perRow(in)
		if got != want {
			t.Fatalf("applier(%q) = %q, per-row lift gives %q", in, got, want)
		}
		if got != in {
			transformed = append(transformed, in)
		}
	}
	if len(transformed) == 0 {
		t.Fatal("no row was transformed")
	}
	once := testing.AllocsPerRun(200, func() {
		for _, in := range transformed {
			apply(in)
		}
	})
	lifted := testing.AllocsPerRun(200, func() {
		for _, in := range transformed {
			perRow(in)
		}
	})
	if once >= lifted {
		t.Errorf("%d transformed rows: %.0f allocs through the applier, %.0f lifting per row; want fewer",
			len(transformed), once, lifted)
	}
}
