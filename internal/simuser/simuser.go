// Package simuser implements the simulated "lazy approach" user of paper
// §7.4 (after Harris & Gulwani) for all three systems:
//
//   - CLX: the user selects the target pattern(s) among the profiled input
//     patterns, then verifies each suggested atomic transformation plan and
//     repairs it from the ranked alternatives when the default is wrong.
//   - FlashFill: the user provides the first positive example on the first
//     record in a non-standard format, then iteratively provides a positive
//     example for the first record the synthesized program still gets wrong.
//   - RegexReplace: delegated to internal/regexreplace's oracle.
//
// Step accounting follows §7.4's metrics exactly, including the punishment
// term (one Step per record left incorrectly transformed).
package simuser

import (
	"sort"

	"clx/internal/cluster"
	"clx/internal/flashfill"
	"clx/internal/pattern"
	"clx/internal/regexreplace"
	"clx/internal/synth"
	"clx/internal/unifi"
)

// CLXResult is the outcome of a simulated CLX session.
type CLXResult struct {
	// Selections is the number of target patterns the user chose.
	Selections int
	// Repairs is the number of source plans repaired from the ranked list.
	Repairs int
	// PlansVerified counts the (target, source) plan cards the user
	// inspected — the interaction count of §7.2 minus the labeling step.
	PlansVerified int
	// FailedRows are rows no selected target + plan could fix.
	FailedRows []int
	// Targets are the selected target patterns.
	Targets []pattern.Pattern
	// InputClusters is the number of leaf pattern clusters shown.
	InputClusters int
	// PostClusters is the number of leaf pattern clusters after the
	// transformation — the post-transform verification view (Fig. 2).
	PostClusters int
	// PlanEvents records each plan-verification interaction in order.
	PlanEvents []PlanEvent
	// Cases are the accepted (source, plan) pairs of the final program, in
	// acceptance order.
	Cases []unifi.Case
	// Outputs is the final transformed column.
	Outputs []string
}

// Applier returns a function that transforms a novel input with the
// session's final program: inputs already matching a selected target stay
// unchanged, the first matching case's plan applies otherwise, and
// unmatched inputs are left as-is (flagged in a real session, §6.1). The
// program is lifted to its guarded form once, not per input.
func (r CLXResult) Applier() func(string) string {
	prog := unifi.Program{Cases: r.Cases}.Lift()
	return func(s string) string {
		for _, tgt := range r.Targets {
			if tgt.Matches(s) {
				return s
			}
		}
		out, err := prog.Apply(s)
		if err != nil {
			return s
		}
		return out
	}
}

// PlanEvent is one plan-verification interaction of a CLX session.
type PlanEvent struct {
	// Repaired is true when the user replaced the default plan (or
	// rejected all plans of a node and drilled into its children).
	Repaired bool
}

// Steps returns the §7.4 Steps: selections + repairs + punishment.
func (r CLXResult) Steps() int { return r.Selections + r.Repairs + len(r.FailedRows) }

// Perfect reports whether the final program transformed every row correctly.
func (r CLXResult) Perfect() bool { return len(r.FailedRows) == 0 }

// Interactions returns the §7.2 interaction count: one labeling interaction
// plus one per verified plan.
func (r CLXResult) Interactions() int { return 1 + r.PlansVerified }

// Options configure the simulated CLX session.
type Options struct {
	// Synth configures the underlying synthesizer.
	Synth synth.Options
	// Cluster configures profiling.
	Cluster cluster.Options
	// ContentConditionals enables the §7.4 guard extension: when no plan
	// of a leaf pattern fits all its rows, the user may split them on a
	// distinguishing token value (one repair per guarded case).
	ContentConditionals bool
}

// DefaultOptions returns the prototype configuration.
func DefaultOptions() Options {
	return Options{Synth: synth.DefaultOptions(), Cluster: cluster.DefaultOptions()}
}

// SimulateCLX runs the lazy CLX user on a column with known ground truth.
func SimulateCLX(inputs, want []string, opts Options) CLXResult {
	var res CLXResult
	h := cluster.Profile(inputs, opts.Cluster)
	res.InputClusters = len(h.Clusters)
	res.Outputs = append([]string(nil), inputs...)

	// Label: derive the target patterns from the desired outputs by
	// generalizing their leaf patterns just enough to minimize the number
	// of selections (§3.2 Labeling; the prototype requires each selected
	// pattern to describe at least one existing input record).
	targets := SelectTargets(inputs, want)
	// Keep only targets supported by an already-correct input record; rows
	// whose format has no such record cannot be labeled (the §7.4
	// representativeness failures).
	supported := targets[:0:0]
	for _, tgt := range targets {
		ok := false
		for i := range inputs {
			if inputs[i] == want[i] && tgt.Matches(inputs[i]) {
				ok = true
				break
			}
		}
		if ok {
			supported = append(supported, tgt)
		}
	}
	res.Targets = supported
	res.Selections = len(supported)

	// Route each dirty row to the first selected target its desired output
	// matches.
	targetOf := make([]int, len(inputs))
	for i := range inputs {
		targetOf[i] = -1
		if inputs[i] == want[i] {
			continue
		}
		for j, tgt := range supported {
			if tgt.Matches(want[i]) {
				targetOf[i] = j
				break
			}
		}
	}

	// Solve each target over the hierarchy, drilling down on verification
	// failure: when no plan of a node fits all its routed rows, the user
	// rejects the suggestion (one repair) and inspects the child patterns,
	// exactly as the hierarchical pattern display of §4.2 affords.
	used := 0
	for j, tgt := range supported {
		var rows []int
		for ri := range inputs {
			if targetOf[ri] == j {
				rows = append(rows, ri)
			}
		}
		if len(rows) == 0 {
			continue // an unneeded selection is never made
		}
		used++
		for _, root := range h.Roots() {
			res.solveNode(root, rowsIn(root, rows), tgt, inputs, want, opts)
		}
	}
	if used == 0 && len(supported) > 0 {
		used = 1 // labeling happens even when the column is already clean
	}
	res.Selections = used
	for i := range inputs {
		if res.Outputs[i] != want[i] {
			res.FailedRows = append(res.FailedRows, i)
		}
	}
	res.PostClusters = len(cluster.Initial(res.Outputs, opts.Cluster))
	return res
}

// rowsIn filters rows to those covered by the node.
func rowsIn(n *cluster.Node, rows []int) []int {
	member := make(map[int]bool)
	for _, leaf := range n.Leaves {
		for _, ri := range leaf.Rows {
			member[ri] = true
		}
	}
	var out []int
	for _, ri := range rows {
		if member[ri] {
			out = append(out, ri)
		}
	}
	return out
}

// solveNode verifies the suggested plans for one hierarchy node against the
// routed rows, repairing from alternatives or drilling into child patterns.
func (r *CLXResult) solveNode(n *cluster.Node, rows []int, tgt pattern.Pattern,
	inputs, want []string, opts Options) {
	if len(rows) == 0 {
		return
	}
	descend := func(userDriven bool) {
		if len(n.Children) == 0 {
			if opts.ContentConditionals {
				r.tryConditional(n.Pattern, rows, inputs, want, opts)
			}
			return // otherwise rows stay broken
		}
		if userDriven {
			r.Repairs++ // the user rejects the suggestion and drills down
			r.PlanEvents = append(r.PlanEvents, PlanEvent{Repaired: true})
		}
		for _, c := range n.Children {
			r.solveNode(c, rowsIn(c, rows), tgt, inputs, want, opts)
		}
	}
	plans := synth.PlansFor(n.Pattern, tgt, opts.Synth)
	if len(plans) == 0 {
		// The system itself rejects the pattern (validate / incomplete
		// alignment): descent is automatic, no user effort.
		descend(false)
		return
	}
	r.PlansVerified++
	for pi, ranked := range plans {
		ok := true
		for _, ri := range rows {
			out, err := ranked.Plan.Apply(n.Pattern, inputs[ri])
			if err != nil || out != want[ri] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if pi > 0 {
			r.Repairs++
		}
		r.PlanEvents = append(r.PlanEvents, PlanEvent{Repaired: pi > 0})
		r.Cases = append(r.Cases, unifi.Case{Source: n.Pattern, Plan: ranked.Plan})
		for _, ri := range rows {
			out, _ := ranked.Plan.Apply(n.Pattern, inputs[ri])
			r.Outputs[ri] = out
		}
		return
	}
	descend(true)
}

// tryConditional attempts the §7.4 guard extension on a failed leaf: split
// the rows on a distinguishing token value and pick one plan per group.
// Each guarded case the user specifies counts as one repair.
func (r *CLXResult) tryConditional(src pattern.Pattern, rows []int, inputs, want []string, opts Options) {
	ins := make([]string, len(rows))
	outs := make([]string, len(rows))
	for k, ri := range rows {
		ins[k] = inputs[ri]
		outs[k] = want[ri]
	}
	cases, ok := synth.ConditionalSplit(src, ins, outs, opts.Synth)
	if !ok {
		return
	}
	prog := unifi.GuardedProgram{Cases: cases}
	for _, ri := range rows {
		out, err := prog.Apply(inputs[ri])
		if err != nil {
			return
		}
		r.Outputs[ri] = out
	}
	r.Repairs += len(cases)
	r.PlanEvents = append(r.PlanEvents, PlanEvent{Repaired: true})
}

// SelectTargets derives the labeled target patterns from the desired
// outputs: profile the outputs (with constant-token discovery, so shared
// prefixes like 'Dr' stay literal), then generalize through the §4.2
// strategies while doing so reduces the number of distinct patterns.
// Targets are returned most specific first, the order the routing uses.
func SelectTargets(inputs, want []string) []pattern.Pattern {
	// Only rows that actually need changing tell the user what the desired
	// format is; noise records that stay as-is ("N/A") are not format
	// evidence. A fully clean column falls back to all rows.
	var evidence []string
	if len(inputs) == len(want) {
		for i := range want {
			if inputs[i] != want[i] {
				evidence = append(evidence, want[i])
			}
		}
	}
	if len(evidence) == 0 {
		evidence = want
	}
	pats := distinctPatterns(evidence)
	// Only the quantifier strategy is used: a user labels a format like
	// "<D>3-<D>3-<D>4" or "[CPT-<D>+]", never a class-folded blob like
	// "<AN>+','<AN>+" — and class-folded targets are untransformable-to
	// anyway (no source token aligns with <A>/<AN> targets).
	if next := distinctGeneralized(pats, cluster.QuantToPlus); len(next) < len(pats) {
		pats = next
	}
	sort.SliceStable(pats, func(a, b int) bool {
		la, lb := literalTokens(pats[a]), literalTokens(pats[b])
		if la != lb {
			return la > lb
		}
		return pats[a].Len() > pats[b].Len()
	})
	return pats
}

func literalTokens(p pattern.Pattern) int {
	n := 0
	for _, t := range p.Tokens() {
		if t.IsLiteral() {
			n++
		}
	}
	return n
}

func distinctPatterns(rows []string) []pattern.Pattern {
	var out []pattern.Pattern
	for _, c := range cluster.Initial(rows, cluster.DefaultOptions()) {
		out = append(out, c.Pattern)
	}
	return out
}

func distinctGeneralized(pats []pattern.Pattern, g cluster.Strategy) []pattern.Pattern {
	seen := make(map[string]bool)
	var out []pattern.Pattern
	for _, p := range pats {
		gp := cluster.Generalize(p, g)
		if k := gp.Key(); !seen[k] {
			seen[k] = true
			out = append(out, gp)
		}
	}
	return out
}

// FFResult is the outcome of a simulated FlashFill session.
type FFResult struct {
	// Examples are the provided input-output examples, in order.
	Examples []flashfill.Example
	// ScanLengths[k] is the number of records the user read after the k-th
	// interaction to find the next wrong record (or confirm none): the
	// instance-level verification work of §7.2.
	ScanLengths []int
	// FailedRows are rows still wrong when the session ended.
	FailedRows []int
	// Outputs is the final transformed column.
	Outputs []string
	// Program is the final learned program (nil when no example was
	// needed).
	Program *flashfill.Program
}

// Steps returns the §7.4 Steps: examples + punishment.
func (r FFResult) Steps() int { return len(r.Examples) + len(r.FailedRows) }

// Perfect reports whether every row ended correct.
func (r FFResult) Perfect() bool { return len(r.FailedRows) == 0 }

// Interactions returns the number of examples provided (§7.2's definition
// for FlashFill).
func (r FFResult) Interactions() int { return len(r.Examples) }

// SimulateFlashFill runs the lazy FlashFill user: provide an example for the
// first wrong record, re-synthesize, repeat until perfect or no progress.
func SimulateFlashFill(inputs, want []string) FFResult {
	var res FFResult
	var learner flashfill.Learner
	given := make(map[int]bool)
	current := make([]string, len(inputs))
	copy(current, inputs)

	refresh := func() {
		prog, err := learner.Program()
		if err != nil {
			copy(current, inputs)
			return
		}
		for i := range inputs {
			out, err := prog.Apply(inputs[i])
			if err != nil {
				// FlashFill fills every cell with its best program's
				// output; a failed evaluation leaves a blank cell the
				// user has to notice and correct — it does not silently
				// preserve the input.
				current[i] = ""
				continue
			}
			current[i] = out
		}
	}
	firstWrong := func() (int, int) {
		for i := range inputs {
			if current[i] != want[i] {
				return i, i + 1 // scanned i+1 records to find it
			}
		}
		return -1, len(inputs)
	}

	for {
		i, scanned := firstWrong()
		res.ScanLengths = append(res.ScanLengths, scanned)
		if i < 0 {
			break // perfect
		}
		if given[i] {
			break // no progress: example already given for this record
		}
		given[i] = true
		ex := flashfill.Example{In: inputs[i], Out: want[i]}
		res.Examples = append(res.Examples, ex)
		if err := learner.Add(ex); err != nil {
			break
		}
		refresh()
	}
	res.Outputs = current
	for i := range inputs {
		if current[i] != want[i] {
			res.FailedRows = append(res.FailedRows, i)
		}
	}
	if prog, err := learner.Program(); err == nil {
		res.Program = prog
	}
	return res
}

// RRResult aliases the RegexReplace oracle result.
type RRResult = regexreplace.Result

// SimulateRegexReplace runs the manual-replace oracle.
func SimulateRegexReplace(inputs, want []string) RRResult {
	return regexreplace.Simulate(inputs, want)
}
