// Command clxbench regenerates the paper's evaluation exhibits (§7,
// Appendices D–E) and prints them in the layout the paper reports. Run a
// single experiment with -exp or everything with -exp all:
//
//	clxbench -exp fig11a        overall completion time, 3 systems × 3 cases
//	clxbench -exp fig11b        rounds of interactions
//	clxbench -exp fig11c        interaction timestamps for 300(6)
//	clxbench -exp fig12         verification time (the headline claim)
//	clxbench -exp fig13         comprehension quiz correct rates
//	clxbench -exp fig14         per-task completion time
//	clxbench -exp table5        explainability test-case statistics
//	clxbench -exp table6        benchmark suite statistics
//	clxbench -exp table7        user-effort wins/ties/losses
//	clxbench -exp fig15         per-task Step speedups
//	clxbench -exp fig16         CLX Step breakdown and CDF
//	clxbench -exp expressivity  perfect-transformation counts
//	clxbench -exp appendixE     user-effort summary fractions
//
// Performance is measured by the benchmark module under bench/, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"clx/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -help) or 'all'")
	flag.Parse()
	if err := runExperiment(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "clxbench:", err)
		os.Exit(1)
	}
}

// experimentsMap wires experiment ids to their printers.
func experimentsMap() map[string]func() {
	return map[string]func(){
		"fig11a":       fig11a,
		"fig11b":       fig11b,
		"fig11c":       fig11c,
		"fig12":        fig12,
		"fig13":        fig13,
		"fig14":        fig14,
		"table5":       table5,
		"table6":       table6,
		"table7":       table7,
		"fig15":        fig15,
		"fig16":        fig16,
		"expressivity": expressivity,
		"appendixE":    appendixE,
		"scaling":      scaling,
		"panel":        panel,
		"markdown":     markdown,
		"quiz":         quiz,
		"tasks":        tasksListing,
	}
}

// allOrder is the printing order of -exp all (panel excluded: it re-runs
// the study nine times).
func allOrder() []string {
	return []string{
		"table5", "table6", "fig11a", "fig11b", "fig11c", "fig12",
		"fig13", "fig14", "expressivity", "table7", "fig15", "fig16",
		"appendixE", "scaling",
	}
}

func runExperiment(exp string) error {
	exps := experimentsMap()
	if exp == "all" {
		for _, id := range allOrder() {
			exps[id]()
			fmt.Println()
		}
		return nil
	}
	f, ok := exps[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	f()
	return nil
}

// bars renders a labeled horizontal bar chart, the ASCII counterpart of
// the paper's bar figures. Values scale to the widest bar.
func bars(rows []experiments.SystemsRow, unit string) {
	maxV := 0.0
	for _, r := range rows {
		for _, v := range []float64{r.RR, r.FF, r.CLX} {
			if v > maxV {
				maxV = v
			}
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	const width = 40
	bar := func(v float64) string {
		n := int(v / maxV * width)
		out := ""
		for i := 0; i < n; i++ {
			out += "█"
		}
		if n == 0 && v > 0 {
			out = "▏"
		}
		return out
	}
	for _, r := range rows {
		fmt.Printf("%-8s RR  %8.1f%s %s\n", r.Label, r.RR, unit, bar(r.RR))
		fmt.Printf("%-8s FF  %8.1f%s %s\n", "", r.FF, unit, bar(r.FF))
		fmt.Printf("%-8s CLX %8.1f%s %s\n", "", r.CLX, unit, bar(r.CLX))
	}
}

func systemsHeader(title, unit string) {
	fmt.Printf("== %s ==\n", title)
	fmt.Printf("%-8s %12s %12s %12s\n", "case", "RegexReplace", "FlashFill", "CLX")
	_ = unit
}

func printRows(rows []experiments.SystemsRow, format string) {
	for _, r := range rows {
		fmt.Printf("%-8s "+format+" "+format+" "+format+"\n", r.Label, r.RR, r.FF, r.CLX)
	}
}

func fig11a() {
	systemsHeader("Figure 11a: overall completion time (s)", "s")
	printRows(experiments.Fig11aCompletionTime(), "%12.1f")
	fmt.Println()
	bars(experiments.Fig11aCompletionTime(), "s")
}

func fig11b() {
	systemsHeader("Figure 11b: rounds of interactions", "")
	printRows(experiments.Fig11bInteractions(), "%12.0f")
}

func fig11c() {
	fmt.Println("== Figure 11c: interaction timestamps for 300(6) (s) ==")
	rr, ff, clx := experiments.Fig11cTimestamps()
	print1c := func(name string, ts []float64) {
		fmt.Printf("%-13s", name)
		for _, t := range ts {
			fmt.Printf(" %7.1f", t)
		}
		fmt.Println()
	}
	print1c("RegexReplace", rr)
	print1c("FlashFill", ff)
	print1c("CLX", clx)
}

func fig12() {
	systemsHeader("Figure 12: verification time (s)", "s")
	printRows(experiments.Fig12VerificationTime(), "%12.1f")
	fmt.Println()
	bars(experiments.Fig12VerificationTime(), "s")
	clx, ff, rr := experiments.VerificationGrowth()
	fmt.Printf("growth 10(2)->300(6): CLX %.1fx, FlashFill %.1fx, RegexReplace %.1fx"+
		"  (paper: 1.3x, 11.4x, -)\n", clx, ff, rr)
}

func fig13() {
	fmt.Println("== Figure 13: comprehension correct rate ==")
	fmt.Printf("%-13s %7s %7s %7s %8s\n", "system", "task 1", "task 2", "task 3", "overall")
	for _, q := range experiments.Fig13Comprehension() {
		fmt.Printf("%-13s %7.2f %7.2f %7.2f %8.2f\n",
			q.System, q.CorrectByTask[0], q.CorrectByTask[1], q.CorrectByTask[2], q.Overall)
	}
}

func fig14() {
	fmt.Println("== Figure 14: completion time per explainability task (s) ==")
	fmt.Printf("%-8s %12s %12s %12s\n", "task", "RegexReplace", "FlashFill", "CLX")
	printRows(experiments.Fig14TaskCompletion(), "%12.1f")
}

func table5() {
	fmt.Println("== Table 5: explainability test cases ==")
	fmt.Printf("%-7s %5s %7s %7s  %s\n", "TaskID", "Size", "AvgLen", "MaxLen", "DataType")
	for _, r := range experiments.Table5() {
		fmt.Printf("%-7s %5d %7.1f %7d  %s\n", r.TaskID, r.Size, r.AvgLen, r.MaxLen, r.DataType)
	}
}

func table6() {
	fmt.Println("== Table 6: benchmark test cases ==")
	fmt.Printf("%-10s %7s %8s %7s %7s\n", "Source", "#tests", "AvgSize", "AvgLen", "MaxLen")
	for _, r := range experiments.Table6() {
		fmt.Printf("%-10s %7d %8.1f %7.1f %7d\n", r.Source, r.Tests, r.AvgSize, r.AvgLen, r.MaxLen)
	}
}

func table7() {
	fmt.Println("== Table 7: user effort comparison (Steps) ==")
	vsFF, vsRR := experiments.Table7()
	n := vsFF.Wins + vsFF.Ties + vsFF.Losses
	pct := func(v int) float64 { return 100 * float64(v) / float64(n) }
	fmt.Printf("vs. FlashFill:    CLX wins %2d (%2.0f%%)  tie %2d (%2.0f%%)  loses %2d (%2.0f%%)\n",
		vsFF.Wins, pct(vsFF.Wins), vsFF.Ties, pct(vsFF.Ties), vsFF.Losses, pct(vsFF.Losses))
	fmt.Printf("vs. RegexReplace: CLX wins %2d (%2.0f%%)  tie %2d (%2.0f%%)  loses %2d (%2.0f%%)\n",
		vsRR.Wins, pct(vsRR.Wins), vsRR.Ties, pct(vsRR.Ties), vsRR.Losses, pct(vsRR.Losses))
	fmt.Println("(paper: vs FF 17/17/13; vs RR 33/12/2)")
}

func fig15() {
	fmt.Println("== Figure 15: per-task Step speedup of CLX ==")
	fmt.Printf("%-26s %8s %8s\n", "task", "vs FF", "vs RR")
	for _, s := range experiments.Fig15Speedups() {
		fmt.Printf("%-26s %7.1fx %7.1fx\n", s.Task, s.VsFF, s.VsRR)
	}
}

func fig16() {
	fmt.Println("== Figure 16: CLX Steps per test case (Selection/Adjust/Total) ==")
	steps := experiments.Fig16Steps()
	totals := make([]int, len(steps))
	for i, s := range steps {
		totals[i] = s.Total
	}
	sort.Ints(totals)
	fmt.Printf("%-26s %9s %6s %5s\n", "task", "selection", "adjust", "total")
	for _, s := range steps {
		fmt.Printf("%-26s %9d %6d %5d\n", s.Task, s.Selection, s.Adjust, s.Total)
	}
	fmt.Println("CDF of total Steps:")
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0} {
		idx := int(q*float64(len(totals))) - 1
		if idx < 0 {
			idx = 0
		}
		fmt.Printf("  %3.0f%% of tasks need <= %d Steps\n", q*100, totals[idx])
	}
}

func expressivity() {
	fmt.Println("== Expressivity (§7.4): perfect transformations ==")
	e := experiments.Expressivity()
	fmt.Printf("CLX          %d/%d (%2.0f%%)   paper: 42/47 (~90%%)\n", e.CLX, e.Total, 100*float64(e.CLX)/float64(e.Total))
	fmt.Printf("FlashFill    %d/%d (%2.0f%%)   paper: 45/47 (~96%%)\n", e.FF, e.Total, 100*float64(e.FF)/float64(e.Total))
	fmt.Printf("RegexReplace %d/%d (%2.0f%%)   paper: 46/47 (~98%%)\n", e.RR, e.Total, 100*float64(e.RR)/float64(e.Total))
}

func panel() {
	fmt.Println("== Participant panel: §7.2 means over 9 simulated cost profiles ==")
	fmt.Printf("%-8s %14s %14s %14s\n", "case", "RegexReplace", "FlashFill", "CLX")
	for _, pr := range experiments.Panel() {
		fmt.Printf("%-8s %9.1f s     %9.1f s     %9.1f s\n",
			pr.Case.Name, pr.MeanTotal[0], pr.MeanTotal[1], pr.MeanTotal[2])
	}
	fmt.Println("(verification-growth shape holds for every individual profile;")
	fmt.Println(" see TestShapeRobustAcrossParticipants)")
}

func scaling() {
	fmt.Println("== Steps vs input size (phone scenario, 4 formats) ==")
	fmt.Printf("%7s %10s %10s %10s\n", "rows", "CLX", "FlashFill", "RegexRepl")
	for _, r := range experiments.StepsVsSize() {
		fmt.Printf("%7d %10d %10d %10d\n", r.Rows, r.CLXSteps, r.FFSteps, r.RRSteps)
	}
	fmt.Println("(CLX Steps are size-independent; §7.2's time growth comes from")
	fmt.Println(" instance-level verification, not from extra user input)")
}

func appendixE() {
	fmt.Println("== Appendix E: CLX user effort breakdown ==")
	s := experiments.AppendixE()
	fmt.Printf("perfect program within 2 Steps: %4.0f%%   (paper ~79%%)\n", 100*s.PerfectWithin2Steps)
	fmt.Printf("single target selection:        %4.0f%%   (paper ~79%%)\n", 100*s.SingleSelection)
	fmt.Printf("no plan adjustment:             %4.0f%%   (paper ~50%%)\n", 100*s.ZeroAdjust)
	fmt.Printf("at most one adjustment:         %4.0f%%   (paper ~85%%)\n", 100*s.AtMostOneAdjust)
}
