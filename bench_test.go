// Benchmarks regenerating every table and figure of the paper's evaluation
// (§7, Appendices D–E), plus micro-benchmarks for the engine's hot paths
// and ablations for the design choices called out in DESIGN.md §4.
//
//	go test -bench=. -benchmem
//
// The exhibit benchmarks report the paper's own metric as a custom unit
// (seconds of simulated user time, Steps, correct rates) via
// b.ReportMetric, so `go test -bench Fig12` prints the same numbers as
// `clxbench -exp fig12`.
package clx_test

import (
	"fmt"
	"testing"

	clx "clx"
	"clx/internal/align"
	"clx/internal/benchsuite"
	"clx/internal/cluster"
	"clx/internal/dataset"
	"clx/internal/experiments"
	"clx/internal/flashfill"
	"clx/internal/mdl"
	"clx/internal/pattern"
	"clx/internal/simuser"
	"clx/internal/synth"
	"clx/internal/tokenize"
	"clx/tables"
)

// --- Evaluation exhibits (§7) -------------------------------------------

func BenchmarkFig11aCompletionTime(b *testing.B) {
	var rows []experiments.SystemsRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig11aCompletionTime()
	}
	for _, r := range rows {
		b.ReportMetric(r.CLX, "s_clx_"+r.Label)
		b.ReportMetric(r.FF, "s_ff_"+r.Label)
		b.ReportMetric(r.RR, "s_rr_"+r.Label)
	}
}

func BenchmarkFig11bInteractions(b *testing.B) {
	var rows []experiments.SystemsRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig11bInteractions()
	}
	for _, r := range rows {
		b.ReportMetric(r.CLX, "clx_"+r.Label)
		b.ReportMetric(r.FF, "ff_"+r.Label)
	}
}

func BenchmarkFig11cTimestamps(b *testing.B) {
	var clx []float64
	for i := 0; i < b.N; i++ {
		_, _, clx = experiments.Fig11cTimestamps()
	}
	if len(clx) > 0 {
		b.ReportMetric(clx[len(clx)-1], "s_clx_last")
	}
}

func BenchmarkFig12VerificationTime(b *testing.B) {
	var cg, fg float64
	for i := 0; i < b.N; i++ {
		cg, fg, _ = experiments.VerificationGrowth()
	}
	b.ReportMetric(cg, "x_clx_growth")
	b.ReportMetric(fg, "x_ff_growth")
}

func BenchmarkFig13Comprehension(b *testing.B) {
	var res []struct{}
	_ = res
	var quiz [3]float64
	for i := 0; i < b.N; i++ {
		for _, q := range experiments.Fig13Comprehension() {
			switch q.System {
			case "CLX":
				quiz[0] = q.Overall
			case "FlashFill":
				quiz[1] = q.Overall
			case "RegexReplace":
				quiz[2] = q.Overall
			}
		}
	}
	b.ReportMetric(quiz[0], "rate_clx")
	b.ReportMetric(quiz[1], "rate_ff")
	b.ReportMetric(quiz[2], "rate_rr")
}

func BenchmarkFig14TaskCompletion(b *testing.B) {
	var rows []experiments.SystemsRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig14TaskCompletion()
	}
	for _, r := range rows {
		b.ReportMetric(r.CLX, "s_clx_"+r.Label)
		b.ReportMetric(r.FF, "s_ff_"+r.Label)
	}
}

func BenchmarkTable7UserEffort(b *testing.B) {
	var vsFF, vsRR experiments.WTL
	for i := 0; i < b.N; i++ {
		vsFF, vsRR = experiments.Table7()
	}
	b.ReportMetric(float64(vsFF.Wins), "wins_vs_ff")
	b.ReportMetric(float64(vsFF.Losses), "losses_vs_ff")
	b.ReportMetric(float64(vsRR.Wins), "wins_vs_rr")
	b.ReportMetric(float64(vsRR.Losses), "losses_vs_rr")
}

func BenchmarkFig15Speedup(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		sp := experiments.Fig15Speedups()
		mean = 0
		for _, s := range sp {
			mean += s.VsFF
		}
		mean /= float64(len(sp))
	}
	b.ReportMetric(mean, "x_mean_vs_ff")
}

func BenchmarkFig16StepCDF(b *testing.B) {
	var e experiments.AppendixEStats
	for i := 0; i < b.N; i++ {
		e = experiments.AppendixE()
	}
	b.ReportMetric(e.PerfectWithin2Steps, "frac_perfect_le2")
	b.ReportMetric(e.SingleSelection, "frac_single_sel")
	b.ReportMetric(e.ZeroAdjust, "frac_zero_adjust")
	b.ReportMetric(e.AtMostOneAdjust, "frac_le1_adjust")
}

func BenchmarkExpressivity(b *testing.B) {
	var e experiments.ExpressivityResult
	for i := 0; i < b.N; i++ {
		e = experiments.Expressivity()
	}
	b.ReportMetric(float64(e.CLX), "clx_of_47")
	b.ReportMetric(float64(e.FF), "ff_of_47")
	b.ReportMetric(float64(e.RR), "rr_of_47")
}

// BenchmarkExtensionConditionals measures the §7.4 future-work extension
// (content-conditional guards): suite coverage with and without it.
func BenchmarkExtensionConditionals(b *testing.B) {
	ext := simuser.DefaultOptions()
	ext.ContentConditionals = true
	var plain, extended float64
	for i := 0; i < b.N; i++ {
		plain, extended = 0, 0
		for _, task := range benchsuite.Tasks() {
			if simuser.SimulateCLX(task.Inputs, task.Outputs, simuser.DefaultOptions()).Perfect() {
				plain++
			}
			if simuser.SimulateCLX(task.Inputs, task.Outputs, ext).Perfect() {
				extended++
			}
		}
	}
	b.ReportMetric(plain, "plain_of_47")
	b.ReportMetric(extended, "extended_of_47")
}

// --- Engine micro-benchmarks (the "efficiency comparable to FlashFill"
// claim of §7) --------------------------------------------------------

func BenchmarkTokenize(b *testing.B) {
	rows, _ := dataset.TimesSquarePhones()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tokenize.Tokenize(rows[i%len(rows)])
	}
}

func BenchmarkMatcher(b *testing.B) {
	p := pattern.MustParse("<AN>+'@'<AN>+'.'<AN>+")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Matches("john-smith_42@example mail.com")
	}
}

func BenchmarkClusterThroughput(b *testing.B) {
	rows, _ := dataset.TimesSquarePhones()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.Profile(rows, cluster.DefaultOptions())
	}
	b.ReportMetric(float64(len(rows)), "rows/op")
}

func BenchmarkAlignment(b *testing.B) {
	src := pattern.MustParse("<U><L>+' '<U><L>+','' '<U><L>+'.'")
	tgt := pattern.MustParse("<U><L>+','' '<U>'.'")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		align.Align(tgt, src)
	}
}

func BenchmarkSynthesisLatency(b *testing.B) {
	rows, _ := dataset.TimesSquarePhones()
	target := pattern.MustParse("<D>3'-'<D>3'-'<D>4")
	h := cluster.Profile(rows, cluster.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		synth.Synthesize(h, target, synth.DefaultOptions())
	}
}

func BenchmarkEndToEndSession(b *testing.B) {
	rows, _ := dataset.TimesSquarePhones()
	target := clx.MustParsePattern("<D>3'-'<D>3'-'<D>4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := clx.NewSession(rows)
		tr, err := sess.Label(target)
		if err != nil {
			b.Fatal(err)
		}
		tr.Run()
	}
}

// workerSweep is the worker-count grid of the parallel benchmarks; it
// matches the determinism test so every measured configuration is also a
// verified-identical one.
var workerSweep = []int{1, 2, 4, 8}

// BenchmarkParallelProfile sweeps cluster.Profile across worker counts
// (Workers=1 is the serial baseline).
func BenchmarkParallelProfile(b *testing.B) {
	rows, _ := dataset.Phones(10000, 6, 77)
	for _, w := range workerSweep {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			opts := cluster.DefaultOptions()
			opts.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cluster.Profile(rows, opts)
			}
		})
	}
}

// BenchmarkParallelEndToEnd sweeps the full profile → synthesize →
// transform session across worker counts.
func BenchmarkParallelEndToEnd(b *testing.B) {
	rows, _ := dataset.Phones(10000, 6, 77)
	target := clx.MustParsePattern("<D>3'-'<D>3'-'<D>4")
	for _, w := range workerSweep {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			opts := clx.DefaultOptions()
			opts.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess := clx.NewSession(rows, opts)
				tr, err := sess.Label(target)
				if err != nil {
					b.Fatal(err)
				}
				tr.Run()
			}
		})
	}
}

// heavySession is the large interactive session: a 20k-row six-format
// phone column grown by a 1k-row append, labeled with the §7.2 target
// and run on one worker.
func heavySession(b *testing.B) *clx.Transformation {
	b.Helper()
	rows, _ := dataset.Phones(20000, 6, 7919)
	more, _ := dataset.Phones(1000, 6, 7920)
	opts := clx.DefaultOptions()
	opts.Workers = 1
	sess := clx.NewSession(rows, opts)
	sess.AppendAndReprofile(more)
	tr, err := sess.Label(clx.MustParsePattern("<D>3'-'<D>3'-'<D>4"))
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkRepairCandidates20k scores every source's ranked plans over
// the heavy session (one op = all sources).
func BenchmarkRepairCandidates20k(b *testing.B) {
	tr := heavySession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := range tr.Sources() {
			tr.RepairCandidates(s)
		}
	}
}

// BenchmarkFlagged20k finds the heavy session's flagged rows.
func BenchmarkFlagged20k(b *testing.B) {
	tr := heavySession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Flagged()
	}
}

func BenchmarkFlashFillLatency(b *testing.B) {
	examples := []flashfill.Example{
		{In: "(734) 645-8397", Out: "734-645-8397"},
		{In: "734.236.3466", Out: "734-236-3466"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flashfill.Learn(examples); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §4) -------------------------------------------

// ablationTasks is a representative slice of the suite exercising the
// ambiguity the ranking must resolve.
func ablationTasks() []benchsuite.Task {
	names := []string{
		"sygus-phone-3", "sygus-univ-1", "sygus-name-combine-4",
		"ff-ex10-dates", "bf-ex3-medical", "pp-ex3-address",
	}
	var out []benchsuite.Task
	for _, n := range names {
		t, ok := benchsuite.ByName(n)
		if !ok {
			panic("missing ablation task " + n)
		}
		out = append(out, t)
	}
	return out
}

// BenchmarkAblationRanking compares the composite ranking (monotone /
// no-reuse / boilerplate strata over MDL) against pure Eq-3 MDL ordering:
// the fraction of (source, rows) groups whose default plan is correct.
func BenchmarkAblationRanking(b *testing.B) {
	tasks := ablationTasks()
	var composite, pure float64
	for i := 0; i < b.N; i++ {
		var total, okComposite, okPure int
		for _, task := range tasks {
			h := cluster.Profile(task.Inputs, cluster.DefaultOptions())
			targets := simuser.SelectTargets(task.Inputs, task.Outputs)
			for _, tgt := range targets {
				res := synth.Synthesize(h, tgt, synth.DefaultOptions())
				for _, src := range res.Sources {
					rows := rowsWanting(task, src.Source, tgt)
					if len(rows) == 0 {
						continue
					}
					total++
					if planCorrect(src.Plans[0].Plan, src.Source, task, rows) {
						okComposite++
					}
					// Pure MDL default: minimum DL regardless of strata.
					best := 0
					for j, r := range src.Plans {
						if r.DL < src.Plans[best].DL {
							best = j
						}
					}
					if planCorrect(src.Plans[best].Plan, src.Source, task, rows) {
						okPure++
					}
				}
			}
		}
		composite = float64(okComposite) / float64(total)
		pure = float64(okPure) / float64(total)
	}
	b.ReportMetric(composite, "default_ok_composite")
	b.ReportMetric(pure, "default_ok_pure_mdl")
}

func rowsWanting(task benchsuite.Task, src, tgt pattern.Pattern) []int {
	var rows []int
	for i := range task.Inputs {
		if task.Inputs[i] != task.Outputs[i] && src.Matches(task.Inputs[i]) && tgt.Matches(task.Outputs[i]) {
			rows = append(rows, i)
		}
	}
	return rows
}

func planCorrect(p interface {
	Apply(pattern.Pattern, string) (string, error)
}, src pattern.Pattern, task benchsuite.Task, rows []int) bool {
	for _, i := range rows {
		out, err := p.Apply(src, task.Inputs[i])
		if err != nil || out != task.Outputs[i] {
			return false
		}
	}
	return true
}

// BenchmarkAblationCombine measures the value of sequential-extract
// combining (Alg 3 lines 10–17): mean operators per default plan with and
// without it.
func BenchmarkAblationCombine(b *testing.B) {
	src := pattern.MustParse("<D>2'/'<D>2'/'<D>4")
	tgt := pattern.MustParse("<D>2'/'<D>2")
	var with, without float64
	for i := 0; i < b.N; i++ {
		d1 := align.Align(tgt, src)
		d2 := align.AlignSingle(tgt, src)
		p1 := mdl.TopK(d1, src, 1)
		p2 := mdl.TopK(d2, src, 1)
		with = float64(p1[0].Plan.Len())
		without = float64(p2[0].Plan.Len())
	}
	b.ReportMetric(with, "ops_with_combine")
	b.ReportMetric(without, "ops_without_combine")
}

// BenchmarkAblationHierarchy compares synthesizing over the full hierarchy
// against leaves only: the number of Replace operations the user must
// verify.
func BenchmarkAblationHierarchy(b *testing.B) {
	// Names vary in length, so the leaf level holds one cluster per
	// length combination while level 1 unifies them; the target uses '+'
	// quantifiers so the unified pattern remains a sound producer.
	names := dataset.Names(120, 9)
	target := pattern.MustParse("<U>+'.'' '<U>+<L>+")
	var full, leaves float64
	for i := 0; i < b.N; i++ {
		h := cluster.Profile(names, cluster.DefaultOptions())
		res := synth.Synthesize(h, target, synth.DefaultOptions())
		full = float64(len(res.Sources))
		leavesOnly := &cluster.Hierarchy{Levels: h.Levels[:1], Clusters: h.Clusters, Data: h.Data}
		res2 := synth.Synthesize(leavesOnly, target, synth.DefaultOptions())
		leaves = float64(len(res2.Sources))
	}
	b.ReportMetric(full, "replace_ops_hierarchy")
	b.ReportMetric(leaves, "replace_ops_leaves_only")
}

// BenchmarkAblationConstants measures constant-token discovery (§4.1):
// suite coverage and total user effort with and without it. Measured:
// coverage is unchanged and Steps are within a few of each other — the
// paper motivates discovery by program *readability* ('Dr.' shown as a
// constant), which Step counts do not capture.
func BenchmarkAblationConstants(b *testing.B) {
	off := simuser.DefaultOptions()
	off.Cluster.DiscoverConstants = false
	var perfectOn, perfectOff, stepsOn, stepsOff float64
	for i := 0; i < b.N; i++ {
		perfectOn, perfectOff, stepsOn, stepsOff = 0, 0, 0, 0
		for _, task := range benchsuite.Tasks() {
			on := simuser.SimulateCLX(task.Inputs, task.Outputs, simuser.DefaultOptions())
			offRes := simuser.SimulateCLX(task.Inputs, task.Outputs, off)
			if on.Perfect() {
				perfectOn++
			}
			if offRes.Perfect() {
				perfectOff++
			}
			stepsOn += float64(on.Steps())
			stepsOff += float64(offRes.Steps())
		}
	}
	b.ReportMetric(perfectOn, "perfect_with_constants")
	b.ReportMetric(perfectOff, "perfect_without_constants")
	b.ReportMetric(stepsOn, "steps_with_constants")
	b.ReportMetric(stepsOff, "steps_without_constants")
}

// BenchmarkAblationValidate measures the Eq-2 frequency-count filter: time
// and candidate counts with and without it.
func BenchmarkAblationValidate(b *testing.B) {
	rows, _ := dataset.TimesSquarePhones()
	target := pattern.MustParse("<D>3'-'<D>3'-'<D>4")
	h := cluster.Profile(rows, cluster.DefaultOptions())
	on := synth.DefaultOptions()
	off := synth.DefaultOptions()
	off.DisableValidate = true
	b.Run("validate-on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			synth.Synthesize(h, target, on)
		}
	})
	b.Run("validate-off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			synth.Synthesize(h, target, off)
		}
	})
}

// BenchmarkSuiteScaling reports end-to-end CLX synthesis latency across
// input sizes — the interactivity requirement of §4.
func BenchmarkSuiteScaling(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("rows-%d", n), func(b *testing.B) {
			rows, _ := dataset.Phones(n, 6, 77)
			target := pattern.MustParse("<D>3'-'<D>3'-'<D>4")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, err := clx.NewSession(rows).Label(target)
				if err != nil {
					b.Fatal(err)
				}
				tr.Run()
			}
		})
	}
}

// --- Newer subsystems ----------------------------------------------------

func BenchmarkTablesUnify(b *testing.B) {
	orgs := []tables.Table{
		{Name: "a", Headers: []string{"Name", "Phone", "City"}},
		{Name: "b", Headers: []string{"phone", "name", "city"}},
		{Name: "c", Headers: []string{"Name", "City", "Phone"}},
	}
	rows, want := dataset.Phones(120, 1, 5)
	names := dataset.Names(120, 5)
	cities := dataset.Names(120, 6)
	for i := 0; i < 40; i++ {
		orgs[0].Rows = append(orgs[0].Rows, []string{names[i], want[i], cities[i]})
		orgs[1].Rows = append(orgs[1].Rows, []string{"(" + rows[40+i][:3] + ") " + rows[40+i][4:], names[40+i], cities[40+i]})
		orgs[2].Rows = append(orgs[2].Rows, []string{names[80+i], cities[80+i], rows[80+i]})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tables.Unify(orgs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSavedProgramApply(b *testing.B) {
	rows, _ := dataset.Phones(50, 5, 8)
	sess := clx.NewSession(rows)
	tr, err := sess.Label(clx.MustParsePattern("<D>3'-'<D>3'-'<D>4"))
	if err != nil {
		b.Fatal(err)
	}
	raw, err := tr.Export()
	if err != nil {
		b.Fatal(err)
	}
	sp, err := clx.LoadProgram(raw)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Apply(rows[i%len(rows)])
	}
}

// suiteLabelColumns are the 47 benchmark-suite sessions, profiled on one
// worker, each with the target a simulated user picks from the desired
// outputs.
func suiteLabelColumns(b *testing.B) (sessions []*clx.Session, targets []clx.Pattern) {
	b.Helper()
	opts := clx.DefaultOptions()
	opts.Workers = 1
	for _, t := range benchsuite.Tasks() {
		sessions = append(sessions, clx.NewSession(t.Inputs, opts))
		targets = append(targets, simuser.SelectTargets(t.Inputs, t.Outputs)[0])
	}
	return sessions, targets
}

// BenchmarkLabelSuite labels every suite session and renders what the
// label response shows per Replace operation: its preview rows and the
// ranked alternatives of the source it serves (one op = 47 labels).
func BenchmarkLabelSuite(b *testing.B) {
	sessions, targets := suiteLabelColumns(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s, sess := range sessions {
			tr, err := sess.Label(targets[s])
			if err != nil {
				b.Fatal(err)
			}
			for _, op := range tr.Replaces() {
				tr.Preview(op, 3)
				tr.Alternatives(op.SourceIndex)
			}
		}
	}
}

// BenchmarkTopK ranks the plans of the suite's largest alignment DAG (the
// most candidate operators over all validated sources and targets) with
// the pool synthesis asks for at the default K.
func BenchmarkTopK(b *testing.B) {
	var (
		best *align.DAG
		src  pattern.Pattern
		size int
	)
	for _, t := range benchsuite.Tasks() {
		h := cluster.Profile(t.Inputs, cluster.DefaultOptions())
		for _, target := range simuser.SelectTargets(t.Inputs, t.Outputs) {
			for _, level := range h.Levels {
				for _, n := range level {
					if !synth.Validate(n.Pattern, target, false) {
						continue
					}
					d := align.Align(target, n.Pattern)
					ops := 0
					for _, es := range d.Ops {
						ops += len(es)
					}
					if d.Complete() && ops > size {
						best, src, size = d, n.Pattern, ops
					}
				}
			}
		}
	}
	k := synth.DefaultOptions().K * 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mdl.TopK(best, src, k)
	}
}
